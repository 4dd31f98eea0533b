package repro.geom

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.PropHelpers

class PolygonSpec extends AnyFunSuite with PropHelpers {
  import PolygonSpec.centroid

  private val unitSquare = Polygon.rect(0, 0, 10, 10)

  test("rect builds a 4-vertex polygon with the right bbox") {
    assert(unitSquare.n === 4)
    assert(unitSquare.minX === 0.0 && unitSquare.maxX === 10.0)
    assert(unitSquare.minY === 0.0 && unitSquare.maxY === 10.0)
  }

  test("contains: interior, exterior, boundary of a rectangle") {
    assert(unitSquare.contains(5, 5))
    assert(unitSquare.contains(0.001, 0.001))
    assert(!unitSquare.contains(-1, 5))
    assert(!unitSquare.contains(5, 11))
    assert(unitSquare.contains(0, 5), "boundary counts as inside")
    assert(unitSquare.contains(10, 10), "corner counts as inside")
  }

  test("contains matches analytic answer for random rectangles and points") {
    val g = Gen.zip(Gen.choose(-50.0, 50.0), Gen.choose(-50.0, 50.0),
                    Gen.choose(1.0, 40.0), Gen.choose(1.0, 40.0))
    forAllG2(g, Gen.zip(Gen.choose(-100.0, 100.0), Gen.choose(-100.0, 100.0))) {
      case ((x0, y0, w, h), (px, py)) =>
        val p        = Polygon.rect(x0, y0, x0 + w, y0 + h)
        val expected = px >= x0 - 1e-9 && px <= x0 + w + 1e-9 && py >= y0 - 1e-9 && py <= y0 + h + 1e-9
        assert(p.contains(px, py) === expected, s"rect($x0,$y0,$w,$h) pt($px,$py)")
    }
  }

  test("contains works for a non-convex polygon (L-shape)") {
    val l = Polygon(Seq(Vec2(0, 0), Vec2(10, 0), Vec2(10, 4), Vec2(4, 4), Vec2(4, 10), Vec2(0, 10)))
    assert(l.contains(2, 2))
    assert(l.contains(8, 2))
    assert(l.contains(2, 8))
    assert(!l.contains(8, 8), "the notch is outside")
  }

  test("centroid of a rectangle is its center") {
    assert(centroid(unitSquare) === Vec2(5, 5))
  }

  test("SAT overlap: disjoint, overlapping, touching, contained") {
    val a = Polygon.rect(0, 0, 10, 10)
    assert(!a.overlapsConvex(Polygon.rect(20, 20, 30, 30)))
    assert(a.overlapsConvex(Polygon.rect(5, 5, 15, 15)))
    assert(a.overlapsConvex(Polygon.rect(10, 0, 20, 10)), "edge touch overlaps")
    assert(a.overlapsConvex(Polygon.rect(2, 2, 4, 4)), "containment overlaps")
    assert(Polygon.rect(2, 2, 4, 4).overlapsConvex(a), "containment is symmetric")
  }

  test("SAT overlap with a rotated convex polygon") {
    val diamond = Polygon(Seq(Vec2(5, -2), Vec2(12, 5), Vec2(5, 12), Vec2(-2, 5)))
    assert(diamond.overlapsConvex(unitSquare))
    val farDiamond = Polygon(Seq(Vec2(105, -2), Vec2(112, 5), Vec2(105, 12), Vec2(98, 5)))
    assert(!farDiamond.overlapsConvex(unitSquare))
  }

  test("SAT overlap on random axis-aligned rectangles matches interval logic") {
    val rectG = Gen.zip(Gen.choose(-50.0, 50.0), Gen.choose(-50.0, 50.0),
                        Gen.choose(1.0, 30.0), Gen.choose(1.0, 30.0))
    forAllG2(rectG, rectG) { case ((ax, ay, aw, ah), (bx, by, bw, bh)) =>
      val a = Polygon.rect(ax, ay, ax + aw, ay + ah)
      val b = Polygon.rect(bx, by, bx + bw, by + bh)
      val expected = ax <= bx + bw + 1e-9 && bx <= ax + aw + 1e-9 &&
        ay <= by + bh + 1e-9 && by <= ay + ah + 1e-9
      assert(a.overlapsConvex(b) === expected)
    }
  }

  test("convex hull of a square plus interior points is the square") {
    val pts  = Seq(Vec2(0, 0), Vec2(10, 0), Vec2(10, 10), Vec2(0, 10), Vec2(5, 5), Vec2(3, 7))
    val hull = Polygon.convexHull(pts)
    assert(hull.n === 4)
    assert(hull.vertices.toSet === Set(Vec2(0, 0), Vec2(10, 0), Vec2(10, 10), Vec2(0, 10)))
  }

  test("convex hull contains all input points") {
    val ptG = Gen.listOfN(12, Gen.zip(Gen.choose(-30.0, 30.0), Gen.choose(-30.0, 30.0)))
    forAllG(ptG, trials = 100) { raw =>
      val pts = raw.map { case (x, y) => Vec2(x, y) }
      if (pts.distinct.size >= 3) {
        val hull = Polygon.convexHull(pts)
        pts.foreach(p => assert(hull.contains(p), s"hull misses $p"))
      }
    }
  }

  test("convex hull handles collinear input without crashing") {
    val hull = Polygon.convexHull(Seq(Vec2(0, 0), Vec2(1, 1), Vec2(2, 2), Vec2(3, 3)))
    assert(hull.n >= 3)
  }

  test("rayExitDistance from the center of a square") {
    val d = unitSquare.rayExitDistance(Vec2(5, 5), Vec2(1, 0))
    assert(d.isDefined && math.abs(d.get - 5.0) < 1e-9)
    val d2 = unitSquare.rayExitDistance(Vec2(5, 5), Vec2(0, -1))
    assert(d2.isDefined && math.abs(d2.get - 5.0) < 1e-9)
  }

  test("rayExitDistance along a diagonal") {
    val d = unitSquare.rayExitDistance(Vec2(5, 5), Vec2(1, 1))
    assert(d.isDefined && math.abs(d.get - 5 * math.sqrt(2)) < 1e-9)
  }

  test("rayExitDistance is None when origin is outside") {
    assert(unitSquare.rayExitDistance(Vec2(20, 20), Vec2(1, 0)).isEmpty)
  }

  test("rayExitDistance for a lane-shaped rectangle along its heading") {
    val lane = Polygon.rect(0, 0, 100, 3.5) // eastbound lane
    val d    = lane.rayExitDistance(Vec2(10, 1.75), Heading.toUnit(0.0))
    assert(d.isDefined && math.abs(d.get - 90.0) < 1e-9)
  }

  test("exit point lies on (or extremely near) the boundary") {
    val dirG = Gen.choose(0.0, 360.0)
    val posG = Gen.zip(Gen.choose(0.5, 9.5), Gen.choose(0.5, 9.5))
    forAllG2(posG, dirG) { case ((x, y), deg) =>
      val o   = Vec2(x, y)
      val dir = Heading.toUnit(deg)
      val d   = unitSquare.rayExitDistance(o, dir)
      assert(d.isDefined)
      val exit = o + dir * d.get
      val onB = math.abs(exit.x) < 1e-6 || math.abs(exit.x - 10) < 1e-6 ||
        math.abs(exit.y) < 1e-6 || math.abs(exit.y - 10) < 1e-6
      assert(onB, s"exit $exit not on boundary")
    }
  }

  test("polygon requires at least 3 vertices") {
    intercept[IllegalArgumentException] {
      Polygon(Array(0.0, 1.0), Array(0.0, 1.0))
    }
  }
}

object PolygonSpec {

  /** The mean of a polygon's vertices. */
  def centroid(p: Polygon): Vec2 = Vec2(p.xs.sum / p.n, p.ys.sum / p.n)
}
