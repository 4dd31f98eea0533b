package repro.track

/** Kuhn–Munkres assignment (the Hungarian method of §6.2, used by
  * SORT-family trackers to associate detections with tracks).
  *
  * O(n³) potentials implementation for rectangular cost matrices.
  */
object Hungarian {

  /** Cost above which a pairing is treated as forbidden. */
  val Forbidden = 1e8

  /** Minimize total cost. `cost(i)(j)` is the cost of assigning row i to
    * column j. Returns, per row, the assigned column or -1. Assignments
    * with cost >= Forbidden are never returned (they are left unmatched).
    */
  def solve(cost: Array[Array[Double]]): Array[Int] = {
    val nRows = cost.length
    if (nRows == 0) return Array.empty
    val nCols = cost(0).length
    if (nCols == 0) return Array.fill(nRows)(-1)

    // Pad to a square matrix; padded cells are "free" dummy assignments.
    val n = math.max(nRows, nCols)
    val a = Array.tabulate(n + 1, n + 1) { (i, j) =>
      if (i == 0 || j == 0) 0.0
      else if (i <= nRows && j <= nCols) math.min(cost(i - 1)(j - 1), Forbidden * 2)
      else Forbidden // dummy row/col
    }

    val u    = Array.fill(n + 1)(0.0)
    val v    = Array.fill(n + 1)(0.0)
    val p    = Array.fill(n + 1)(0)   // p(j) = row matched to column j
    val way  = Array.fill(n + 1)(0)

    var i = 1
    while (i <= n) {
      p(0) = i
      var j0 = 0
      val minv = Array.fill(n + 1)(Double.PositiveInfinity)
      val used = Array.fill(n + 1)(false)
      var continue = true
      while (continue) {
        used(j0) = true
        val i0    = p(j0)
        var delta = Double.PositiveInfinity
        var j1    = -1
        var j     = 1
        while (j <= n) {
          if (!used(j)) {
            val cur = a(i0)(j) - u(i0) - v(j)
            if (cur < minv(j)) { minv(j) = cur; way(j) = j0 }
            if (minv(j) < delta) { delta = minv(j); j1 = j }
          }
          j += 1
        }
        var k = 0
        while (k <= n) {
          if (used(k)) { u(p(k)) += delta; v(k) -= delta }
          else minv(k) -= delta
          k += 1
        }
        j0 = j1
        continue = p(j0) != 0
      }
      // Augment along the alternating path.
      while (j0 != 0) {
        val j1 = way(j0)
        p(j0) = p(j1)
        j0 = j1
      }
      i += 1
    }

    val result = Array.fill(nRows)(-1)
    var j = 1
    while (j <= n) {
      val row = p(j)
      if (row >= 1 && row <= nRows && j <= nCols && cost(row - 1)(j - 1) < Forbidden)
        result(row - 1) = j - 1
      j += 1
    }
    result
  }
}
