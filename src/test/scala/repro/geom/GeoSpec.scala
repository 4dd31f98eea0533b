package repro.geom

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.PropHelpers

class GeoSpec extends AnyFunSuite with PropHelpers {

  private val coord = Gen.choose(-1000.0, 1000.0)

  test("Vec2 arithmetic basics") {
    assert(Vec2(1, 2) + Vec2(3, 4) === Vec2(4, 6))
    assert(Vec2(1, 2) - Vec2(3, 4) === Vec2(-2, -2))
    assert(Vec2(1, 2) * 2 === Vec2(2, 4))
    assert(Vec2(3, 4).norm === 5.0)
    assert(Vec2(1, 0).perp === Vec2(0, 1))
  }

  test("Vec2 dot and cross") {
    assert((Vec2(1, 0) dot Vec2(0, 1)) === 0.0)
    assert((Vec2(1, 0) cross Vec2(0, 1)) === 1.0)
    assert((Vec2(0, 1) cross Vec2(1, 0)) === -1.0)
  }

  test("Vec2 dist is symmetric") {
    forAllG2(coord, coord) { (x, y) =>
      assert(Vec2(x, y).dist(Vec2(y, x)) === Vec2(y, x).dist(Vec2(x, y)))
    }
  }

  test("Vec2 normalized has unit norm") {
    forAllG2(coord, coord) { (x, y) =>
      if (math.hypot(x, y) > 1e-6)
        assert(math.abs(Vec2(x, y).normalized.norm - 1.0) < 1e-9)
    }
  }

  test("Vec3 cross is orthogonal to both inputs") {
    forAllG2(Gen.zip(coord, coord, coord), Gen.zip(coord, coord, coord)) { (t1, t2) =>
      val u = Vec3(t1._1, t1._2, t1._3); val v = Vec3(t2._1, t2._2, t2._3)
      val w = u cross v
      assert(math.abs(w dot u) < 1e-4 * (1 + u.norm * v.norm))
      assert(math.abs(w dot v) < 1e-4 * (1 + u.norm * v.norm))
    }
  }

  test("Vec3 xy projection") {
    assert(Vec3(1, 2, 3).xy === Vec2(1, 2))
  }

  test("heading canon lands in [0, 360)") {
    forAllG(Gen.choose(-10000.0, 10000.0)) { d =>
      val c = Heading.canon(d)
      assert(c >= 0.0 && c < 360.0)
    }
    // Just below 0, `d + 360` rounds to 360: canon must fold it to 0.
    Seq(-1e-15, -1e-14, math.nextDown(0.0)).foreach { d =>
      assert(Heading.canon(d) === 0.0, s"canon($d)")
    }
  }

  test("heading diff is symmetric and in [0, 180]") {
    forAllG2(Gen.choose(-720.0, 720.0), Gen.choose(-720.0, 720.0)) { (a, b) =>
      val d = Heading.diff(a, b)
      assert(d >= 0.0 && d <= 180.0)
      assert(math.abs(d - Heading.diff(b, a)) < 1e-9)
    }
  }

  test("heading diff examples") {
    assert(Heading.diff(0, 180) === 180.0)
    assert(Heading.diff(10, 350) === 20.0)
    assert(Heading.diff(90, 270) === 180.0)
    assert(Heading.diff(45, 45) === 0.0)
  }

  test("signedDelta inverts canon difference") {
    forAllG2(Gen.choose(0.0, 360.0), Gen.choose(-179.0, 179.0)) { (a, d) =>
      val b = a + d
      assert(math.abs(Heading.signedDelta(a, b) - d) < 1e-9)
    }
  }

  test("toUnit/ofVec round trip") {
    forAllG(Gen.choose(0.0, 359.99)) { deg =>
      assert(math.abs(Heading.diff(Heading.ofVec(Heading.toUnit(deg)), deg)) < 1e-6)
    }
  }

  test("Rng.hash01 is deterministic and in [0,1)") {
    forAllG2(Gen.long, Gen.long) { (a, b) =>
      val u = Rng.hash01(a, b)
      assert(u >= 0.0 && u < 1.0)
      assert(u === Rng.hash01(a, b))
    }
  }

  test("Rng.hash01 spreads uniformly (no obvious collisions)") {
    val vals = (0L until 1000L).map(i => Rng.hash01(42L, i))
    assert(vals.distinct.size > 990)
    val mean = vals.sum / vals.size
    assert(mean > 0.45 && mean < 0.55, s"mean $mean not uniform-ish")
  }

  test("Rng.hashInt in range") {
    forAllG2(Gen.choose(1, 100), Gen.long) { (n, s) =>
      val v = Rng.hashInt(n, s)
      assert(v >= 0 && v < n)
    }
  }

  test("Rng.hashIn respects bounds") {
    forAllG(Gen.long) { s =>
      val v = Rng.hashIn(5.0, 7.0, s)
      assert(v >= 5.0 && v < 7.0)
    }
  }
}
