package repro.geom

/** A simple polygon on the z=0 ground plane, vertices in order (either
  * orientation), implicitly closed. Geographic Constructs (paper §4.1.2)
  * and camera view hulls (§6.1.2) are represented this way.
  */
final case class Polygon(xs: Array[Double], ys: Array[Double]) {
  require(xs.length == ys.length, "xs/ys length mismatch")
  require(xs.length >= 3, s"polygon needs >= 3 vertices, got ${xs.length}")

  def n: Int = xs.length

  def vertex(i: Int): Vec2 = Vec2(xs(i), ys(i))

  def vertices: IndexedSeq[Vec2] = (0 until n).map(vertex)

  lazy val minX: Double = xs.min
  lazy val maxX: Double = xs.max
  lazy val minY: Double = ys.min
  lazy val maxY: Double = ys.max

  /** Point-in-polygon with inclusive boundary; see `Polygon.contains`. */
  def contains(px: Double, py: Double): Boolean = Polygon.contains(xs, ys, px, py)

  def contains(p: Vec2): Boolean = contains(p.x, p.y)

  /** Convex-polygon overlap via the separating-axis theorem. Both polygons
    * must be convex (road segments and view hulls are). Touching counts
    * as overlapping.
    */
  def overlapsConvex(other: Polygon): Boolean =
    !Polygon.separatedOnAnyAxis(this, other) && !Polygon.separatedOnAnyAxis(other, this)

  /** Distance along ray (origin + t * dir) at which it exits this polygon,
    * assuming `origin` is inside. Returns None if the origin is outside or
    * the ray never crosses the boundary (degenerate dir).
    *
    * Used by the Exit Frame Sampler (§6.4.2 `exitsLane`): a car at
    * `origin` moving along the lane direction exits the lane polygon at
    * this distance.
    */
  def rayExitDistance(origin: Vec2, dir: Vec2): Option[Double] = {
    if (!contains(origin)) return None
    val d = dir.normalized
    if (d.norm < 1e-9) return None
    var best = Double.PositiveInfinity
    var j    = n - 1
    var i    = 0
    while (i < n) {
      val a = vertex(j); val b = vertex(i)
      // Solve origin + t*d = a + u*(b-a), 0<=u<=1, t>=0.
      val e     = b - a
      val denom = d cross e
      if (math.abs(denom) > 1e-12) {
        val ao = a - origin
        val t  = (ao cross e) / denom
        val u  = (ao cross d) / denom
        if (t >= -Polygon.Eps && u >= -1e-9 && u <= 1 + 1e-9 && t < best) best = t
      }
      j = i
      i += 1
    }
    if (best.isInfinity) None else Some(math.max(0.0, best))
  }
}

object Polygon {
  def apply(pts: Seq[Vec2]): Polygon =
    new Polygon(pts.map(_.x).toArray, pts.map(_.y).toArray)

  /** Boundary tolerance (m): a point this close to an edge is on it. */
  final val Eps = 1e-9

  /** Point-in-polygon over parallel vertex arrays: inside by ray casting,
    * or within `Eps` of an edge, which matches the inclusive semantics of
    * `contains(construct, obj)` in S-Flow. The one containment test of the
    * system: `Polygon#contains` and the query engine's `st_contains` both
    * call it, so it allocates nothing. Fewer than 3 vertices contain
    * nothing.
    *
    * A point farther than `Eps` outside the bounding box fails every
    * edge's box test in `onBoundary` and crosses an even number of edges,
    * so no separate box pass is needed. The ray cast runs first: a point
    * it finds inside needs no boundary pass.
    */
  def contains(xs: Array[Double], ys: Array[Double], px: Double, py: Double): Boolean = {
    val n = math.min(xs.length, ys.length)
    n >= 3 && (crossesOdd(xs, ys, n, px, py) || onBoundary(xs, ys, n, px, py))
  }

  private def crossesOdd(xs: Array[Double], ys: Array[Double], n: Int, px: Double, py: Double): Boolean = {
    var inside = false
    var j      = n - 1
    var i      = 0
    while (i < n) {
      val xi = xs(i); val yi = ys(i); val xj = xs(j); val yj = ys(j)
      if ((yi > py) != (yj > py) && px < (xj - xi) * (py - yi) / (yj - yi) + xi) inside = !inside
      j = i
      i += 1
    }
    inside
  }

  private def onBoundary(xs: Array[Double], ys: Array[Double], n: Int, px: Double, py: Double): Boolean = {
    var j = n - 1
    var i = 0
    while (i < n) {
      if (onEdge(xs(j), ys(j), xs(i), ys(i), px, py)) return true
      j = i
      i += 1
    }
    false
  }

  /** Whether p lies within `Eps` of segment ab. An edge whose box ± `Eps`
    * misses p is rejected before the distance is computed.
    */
  private def onEdge(ax: Double, ay: Double, bx: Double, by: Double, px: Double, py: Double): Boolean = {
    if ((px < ax - Eps && px < bx - Eps) || (px > ax + Eps && px > bx + Eps) ||
        (py < ay - Eps && py < by - Eps) || (py > ay + Eps && py > by + Eps)) return false
    val abx = bx - ax; val aby = by - ay
    val apx = px - ax; val apy = py - ay
    val len2 = abx * abx + aby * aby
    val t    = if (len2 < 1e-18) 0.0 else math.max(0.0, math.min(1.0, (apx * abx + apy * aby) / len2))
    val dx   = apx - abx * t; val dy = apy - aby * t
    math.sqrt(dx * dx + dy * dy) <= Eps
  }

  /** Axis-aligned rectangle. */
  def rect(x0: Double, y0: Double, x1: Double, y1: Double): Polygon =
    Polygon(Seq(Vec2(x0, y0), Vec2(x1, y0), Vec2(x1, y1), Vec2(x0, y1)))

  private def separatedOnAnyAxis(a: Polygon, b: Polygon): Boolean = {
    var j = a.n - 1
    var i = 0
    while (i < a.n) {
      val edge   = a.vertex(i) - a.vertex(j)
      val axis   = edge.perp
      var minA   = Double.PositiveInfinity; var maxA = Double.NegativeInfinity
      var minB   = Double.PositiveInfinity; var maxB = Double.NegativeInfinity
      a.vertices.foreach { v => val p = v dot axis; minA = math.min(minA, p); maxA = math.max(maxA, p) }
      b.vertices.foreach { v => val p = v dot axis; minB = math.min(minB, p); maxB = math.max(maxB, p) }
      if (maxA < minB - 1e-9 || maxB < minA - 1e-9) return true
      j = i
      i += 1
    }
    false
  }

  /** Convex hull (Andrew's monotone chain), CCW orientation. Collinear
    * points are dropped. Degenerate inputs (all points collinear) return
    * a thin triangle by perturbing nothing — callers guarantee >= 3
    * non-collinear points (camera position + frustum corners always are).
    */
  def convexHull(points: Seq[Vec2]): Polygon = {
    val pts = points.distinct.sortBy(p => (p.x, p.y))
    require(pts.size >= 3, s"hull needs >= 3 distinct points, got ${pts.size}")
    def half(ps: Seq[Vec2]): Vector[Vec2] = {
      var st = Vector.empty[Vec2]
      ps.foreach { p =>
        while (st.size >= 2 && ((st(st.size - 1) - st(st.size - 2)) cross (p - st(st.size - 2))) <= 1e-12)
          st = st.dropRight(1)
        st :+= p
      }
      st
    }
    val lower = half(pts)
    val upper = half(pts.reverse)
    val hull  = lower.dropRight(1) ++ upper.dropRight(1)
    if (hull.size >= 3) Polygon(hull)
    else {
      // Collinear input: widen into a sliver so downstream SAT still works.
      val a = pts.head; val b = pts.last
      val off = (b - a).perp.normalized * 1e-6
      Polygon(Seq(a - off, b - off, b + off, a + off))
    }
  }
}
