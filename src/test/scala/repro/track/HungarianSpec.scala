package repro.track

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.PropHelpers

class HungarianSpec extends AnyFunSuite with PropHelpers {

  /** Total cost of an assignment. */
  private def totalCost(cost: Array[Array[Double]], assign: Array[Int]): Double =
    assign.zipWithIndex.collect { case (j, i) if j >= 0 => cost(i)(j) }.sum

  /** Exhaustive minimum assignment for small matrices. Unassignable pairs
    * (>= Forbidden) are left unmatched.
    */
  private def bruteForce(cost: Array[Array[Double]]): Double = {
    val n = cost.length
    if (n == 0) return 0.0
    val m = cost(0).length
    var best = Double.PositiveInfinity
    val cols = (-1 +: (0 until m)).toArray // -1 = leave row unmatched
    def rec(i: Int, used: Set[Int], acc: Double, matched: Int): Unit = {
      if (i == n) {
        // All-or-max matching: require the maximum possible matches, as
        // Hungarian with dummy padding produces.
        if (matched == math.min(n, m) && acc < best) best = acc
      } else {
        cols.foreach {
          case -1 => rec(i + 1, used, acc, matched)
          case j if !used(j) && cost(i)(j) < Hungarian.Forbidden =>
            rec(i + 1, used + j, acc + cost(i)(j), matched + 1)
          case _ =>
        }
      }
    }
    rec(0, Set.empty, 0.0, 0)
    if (best.isInfinity) {
      // No full matching exists (forbidden entries); fall back to best
      // partial matching of any size with minimum cost-per-match count.
      var bestPartial = (0, 0.0)
      def rec2(i: Int, used: Set[Int], acc: Double, matched: Int): Unit = {
        if (i == n) {
          if (matched > bestPartial._1 || (matched == bestPartial._1 && acc < bestPartial._2))
            bestPartial = (matched, acc)
        } else cols.foreach {
          case -1 => rec2(i + 1, used, acc, matched)
          case j if !used(j) && cost(i)(j) < Hungarian.Forbidden =>
            rec2(i + 1, used + j, acc + cost(i)(j), matched + 1)
          case _ =>
        }
      }
      rec2(0, Set.empty, 0.0, 0)
      bestPartial._2
    } else best
  }

  test("empty and degenerate inputs") {
    assert(Hungarian.solve(Array.empty).isEmpty)
    assert(Hungarian.solve(Array(Array.empty[Double])) === Array(-1))
  }

  test("1x1") {
    assert(Hungarian.solve(Array(Array(3.0))) === Array(0))
  }

  test("classic 3x3 example") {
    val cost = Array(
      Array(4.0, 1.0, 3.0),
      Array(2.0, 0.0, 5.0),
      Array(3.0, 2.0, 2.0))
    val a = Hungarian.solve(cost)
    assert(totalCost(cost, a) === 5.0) // 1 + 2 + 2
    assert(a.toSet.size === 3)
  }

  test("rectangular: more columns than rows") {
    val cost = Array(Array(10.0, 1.0, 10.0, 10.0), Array(1.0, 10.0, 10.0, 10.0))
    val a = Hungarian.solve(cost)
    assert(a === Array(1, 0))
  }

  test("rectangular: more rows than columns leaves some rows unmatched") {
    val cost = Array(Array(1.0), Array(2.0), Array(3.0))
    val a = Hungarian.solve(cost)
    assert(a.count(_ >= 0) === 1)
    assert(a(0) === 0, "cheapest row gets the single column")
  }

  test("forbidden entries are never assigned") {
    val cost = Array(
      Array(Hungarian.Forbidden, 1.0),
      Array(Hungarian.Forbidden, Hungarian.Forbidden))
    val a = Hungarian.solve(cost)
    assert(a(0) === 1)
    assert(a(1) === -1)
  }

  test("assignment is a valid partial matching") {
    val g = Gen.choose(1, 6).flatMap { n =>
      Gen.choose(1, 6).flatMap { m =>
        Gen.listOfN(n * m, Gen.choose(0.0, 100.0)).map { vs =>
          Array.tabulate(n, m)((i, j) => vs(i * m + j))
        }
      }
    }
    forAllG(g, trials = 150) { cost =>
      val a = Hungarian.solve(cost)
      assert(a.length === cost.length)
      val assigned = a.filter(_ >= 0)
      assert(assigned.distinct.length === assigned.length, "no column reused")
      assigned.foreach(j => assert(j < cost(0).length))
      assert(assigned.length === math.min(cost.length, cost(0).length))
    }
  }

  test("matches brute force optimum on random matrices up to 5x5") {
    val g = Gen.choose(1, 5).flatMap { n =>
      Gen.choose(1, 5).flatMap { m =>
        Gen.listOfN(n * m, Gen.choose(0.0, 50.0)).map { vs =>
          Array.tabulate(n, m)((i, j) => vs(i * m + j))
        }
      }
    }
    forAllG(g, trials = 200) { cost =>
      val a    = Hungarian.solve(cost)
      val mine = totalCost(cost, a)
      val opt  = bruteForce(cost)
      assert(math.abs(mine - opt) < 1e-6, s"got $mine, optimum $opt for ${cost.map(_.mkString(",")).mkString(";")}")
    }
  }

  test("matches brute force with forbidden entries mixed in") {
    val g = Gen.choose(2, 4).flatMap { n =>
      Gen.listOfN(n * n, Gen.frequency(3 -> Gen.choose(0.0, 50.0), 1 -> Gen.const(Hungarian.Forbidden)))
        .map(vs => Array.tabulate(n, n)((i, j) => vs(i * n + j)))
    }
    forAllG(g, trials = 150) { cost =>
      val a = Hungarian.solve(cost)
      a.zipWithIndex.foreach { case (j, i) =>
        if (j >= 0) assert(cost(i)(j) < Hungarian.Forbidden, "assigned a forbidden pair")
      }
    }
  }

  test("identity matrix costs assign the diagonal") {
    val n = 8
    val cost = Array.tabulate(n, n)((i, j) => if (i == j) 0.0 else 10.0)
    assert(Hungarian.solve(cost) === (0 until n).toArray)
  }
}
