package repro.world

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.geom.{Heading, Vec2}

class WorldGenSpec extends SparkSpec {
  import RoadNetworkSpec.intersectionAt

  private val p   = WorldParams.nuscenes(nScenes = 3)
  private val net = RoadNetwork.grid(p.grid)

  test("frames: one row per (scene, frame) with monotone timestamps") {
    val frs = SceneGen.frames(p, 0L)
    assert(frs.size === p.nFrames)
    assert(frs.map(_.frameIdx) === (0 until p.nFrames))
    assert(frs.sliding(2).forall { case Seq(a, b) => b.ts > a.ts })
  }

  test("frames are deterministic in (params, sceneId)") {
    assert(SceneGen.frames(p, 1L) === SceneGen.frames(p, 1L))
    assert(SceneGen.frames(p, 1L) !== SceneGen.frames(p, 2L))
  }

  test("ego camera moves at the configured speed") {
    val frs = SceneGen.frames(p, 0L)
    val dist = frs.sliding(2).map { case Seq(a, b) =>
      math.hypot(b.camX - a.camX, b.camY - a.camY)
    }.sum
    val expected = p.egoSpeed * (p.nFrames - 1) / p.fps
    assert(math.abs(dist - expected) < expected * 0.02, s"path length $dist vs $expected")
  }

  test("ego stays on lanes or intersections (lane-centerline path)") {
    (0L until 3L).foreach { sid =>
      val frs = SceneGen.frames(p, sid)
      val off = frs.count { f =>
        val pos = Vec2(f.camX, f.camY)
        net.laneAt(pos).isEmpty && intersectionAt(net, pos).isEmpty
      }
      assert(off.toDouble / frs.size < 0.15, s"scene $sid: ${off * 100.0 / frs.size}% of ego frames off-road")
    }
  }

  test("ego heading follows motion direction") {
    val frs = SceneGen.frames(p, 0L)
    val bad = frs.sliding(2).count { case Seq(a, b) =>
      val d = math.hypot(b.camX - a.camX, b.camY - a.camY)
      d > 0.1 && Heading.diff(Heading.ofVec(Vec2(b.camX - a.camX, b.camY - a.camY)), a.camYaw) > 50
    }
    assert(bad < frs.size / 10, s"$bad frames with heading far from motion")
  }

  test("states: every object exists at every frame") {
    val st = SceneGen.states(p, 0L)
    assert(st.size === p.nObjects * p.nFrames)
    val perObj = st.groupBy(_.oid).values.map(_.size).toSet
    assert(perObj === Set(p.nFrames))
  }

  test("states are deterministic") {
    assert(SceneGen.states(p, 2L) === SceneGen.states(p, 2L))
  }

  test("object type mix is calibrated to the paper's fractions") {
    val types = (0L until 40L).flatMap(sid => SceneGen.states(p, sid)).groupBy(_.otype)
      .view.mapValues(_.size.toDouble).toMap
    val total = types.values.sum
    val vehicles = (types.getOrElse("car", 0.0) + types.getOrElse("truck", 0.0)) / total
    val peds     = types.getOrElse("pedestrian", 0.0) / total
    assert(vehicles > 0.5 && vehicles < 0.75, s"cars+trucks fraction $vehicles (target ~0.635)")
    assert(peds > 0.07 && peds < 0.22, s"pedestrian fraction $peds (target ~0.137)")
  }

  test("objects move consistently with their speed") {
    val st = SceneGen.states(p, 0L).groupBy(_.oid)
    st.values.foreach { rows =>
      val sorted = rows.sortBy(_.frameIdx)
      sorted.sliding(2).foreach { case Seq(a, b) =>
        val d = math.hypot(b.x - a.x, b.y - a.y)
        assert(math.abs(d - a.speed / p.fps) < 1e-6, s"object ${a.oid} moved $d, speed ${a.speed}")
      }
    }
  }

  test("stopped objects exist (for Q10) and never move") {
    val st = (0L until 6L).flatMap(sid => SceneGen.states(p, sid))
    val stoppedCars = st.filter(r => r.otype == "car" && r.speed == 0.0)
    assert(stoppedCars.nonEmpty, "need stopped cars for Q10")
    stoppedCars.groupBy(_.oid).values.foreach { rows =>
      assert(rows.map(r => (r.x, r.y)).distinct.size === 1)
    }
  }

  test("left-turning cars exist (for Q9) with ~90 degree CCW net turn") {
    val turners = (0L until 8L).flatMap { sid =>
      SceneGen.states(p, sid).groupBy(_.oid).values.filter { rows =>
        val hs = rows.sortBy(_.frameIdx).map(_.heading)
        val net = hs.sliding(2).map { case Seq(a, b) => Heading.signedDelta(a, b) }.sum
        net > 60.0
      }
    }
    assert(turners.nonEmpty, "need left-turning cars for Q9")
  }

  test("Spark dataset builders produce the same rows as the per-scene generator") {
    import spark.implicits._
    val small = p.copy(nScenes = 2)
    val viaSpark = WorldGen.frames(spark, small).as[FrameRow].collect().toVector
      .sortBy(f => (f.sceneId, f.frameIdx))
    val direct = (0L until 2L).flatMap(SceneGen.frames(small, _)).toVector
      .sortBy(f => (f.sceneId, f.frameIdx))
    assert(viaSpark === direct)
    assert(WorldGen.gtStates(spark, small).count() === 2L * small.nObjects * small.nFrames)
  }

  test("jackson flavour has a static camera") {
    val jp  = WorldParams.jackson(nClips = 2)
    val frs = SceneGen.frames(jp, 0L)
    assert(frs.map(f => (f.camX, f.camY, f.camYaw)).distinct.size === 1)
    assert(frs.head.camZ === 6.0)
  }

  test("sky flavour flies straight north at altitude, looking down") {
    val sp  = WorldParams.sky(nFlights = 2)
    val frs = SceneGen.frames(sp, 0L)
    assert(frs.head.camZ === 120.0)
    assert(frs.head.camPitch === 90.0)
    assert(frs.map(_.camX).distinct.size === 1, "north-south sweep keeps x fixed")
    assert(frs.last.camY > frs.head.camY)
  }

  test("path posAt interpolates and clamps") {
    val path = Path(Vector(Vec2(0, 0), Vec2(10, 0), Vec2(10, 10)))
    assert(path.length === 20.0)
    assert(path.posAt(5) === Vec2(5, 0))
    assert(path.posAt(15) === Vec2(10, 5))
    assert(path.posAt(-5) === Vec2(0, 0))
    assert(path.posAt(99) === Vec2(10, 10))
  }

  test("path headingAt matches segment directions away from corners") {
    val path = Path(Vector(Vec2(0, 0), Vec2(10, 0), Vec2(10, 10)))
    assert(Heading.diff(path.headingAt(2), 0.0) < 1e-9)
    assert(Heading.diff(path.headingAt(18), 90.0) < 1e-9)
  }
}
