package repro.core

import java.nio.file.Files
import org.apache.spark.sql.DataFrame
import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.sflow.{CamRef, Contains, GeoRef, Queries}
import repro.world.{RoadNetwork, WorldGen, WorldParams}

/** End-to-end build–filter–observe runs of the Table 1 queries on small
  * synthetic worlds.
  */
class SpatialyzeWorldSpec extends SparkSpec {

  private val p   = WorldParams.nuscenes(nScenes = 6)
  private val net = RoadNetwork.grid(p.grid)
  private lazy val frames = WorldGen.frames(spark, p).persist()
  private lazy val gt     = WorldGen.gtStates(spark, p).persist()

  private def world() =
    new SpatialyzeWorld(spark, p.fps).addGeogConstructs(net).addVideo(frames, gt)

  private def frameSet(df: DataFrame): Set[(Long, Int)] =
    df.select("sceneId", "frameIdx").collect().map(r => (r.getLong(0), r.getInt(1))).toSet

  test("observing an unfiltered world fails loudly") {
    intercept[IllegalArgumentException] { world().observe() }
  }

  test("observing without data fails loudly") {
    intercept[IllegalStateException] {
      new SpatialyzeWorld(spark).filter(Queries.q5.pred).observe()
    }
  }

  // Q1/Q2/Q5/Q6 are built into the generator's traffic patterns: they
  // must produce matches on a handful of scenes.
  Seq(Queries.q1, Queries.q2, Queries.q5, Queries.q6).foreach { q =>
    test(s"${q.name} end-to-end returns matches (${q.description})") {
      val res = world().filter(q.pred).observe(PlanConfig.all, q.name)
      val n   = res.rows.count()
      info(s"${q.name}: $n matching rows")
      assert(n > 0, s"${q.name} should match in the synthetic world")
      assert(res.rows.columns.contains("sceneId") && res.rows.columns.contains("frameIdx"))
    }
  }

  // The remaining nuScenes queries must at least execute cleanly end to
  // end with all optimizations (matches depend on rarer configurations).
  Seq(Queries.q3, Queries.q4, Queries.q7, Queries.q8, Queries.q9).foreach { q =>
    test(s"${q.name} executes end-to-end (${q.description})") {
      val res = world().filter(q.pred).observe(PlanConfig.all, q.name)
      assert(res.rows.count() >= 0)
      assert(res.stats.framesTotal === frames.count())
      assert(res.workflowMs > 0)
    }
  }

  test("Q10 end-to-end on the aerial dataset finds stopped cars in bike lanes") {
    val sp  = WorldParams.sky(nFlights = 3)
    val res = new SpatialyzeWorld(spark, sp.fps)
      .addGeogConstructs(RoadNetwork.grid(sp.grid))
      .addVideo(WorldGen.frames(spark, sp), WorldGen.gtStates(spark, sp))
      .filter(Queries.q10Aerial.pred)
      .observe(PlanConfig(rvp = true, otp = false, geom3d = false, efs = false), "Q10a")
    val n = res.rows.count()
    info(s"Q10a: $n matching rows, pruned ${res.stats.prunedFrameFraction * 100}%")
    assert(n > 0, "aerial dataset must contain stopped cars in bike lanes")
    assert(res.stats.rvpApplied)
  }

  test("optimized and baseline plans return consistent match sets for Q5") {
    def matchedFrames(config: PlanConfig, name: String) =
      frameSet(world().filter(Queries.q5.pred).observe(config, name).rows)
    val baseFrames = matchedFrames(PlanConfig.baseline, "Q5b")
    val optFrames  = matchedFrames(PlanConfig.all, "Q5o")
    // Q5 is detection-only: GE vs ML moves 3D estimates slightly, so allow
    // boundary flips, but the overlap must dominate.
    val overlap = (baseFrames intersect optFrames).size.toDouble
    info(s"base=${baseFrames.size} opt=${optFrames.size} overlap=$overlap")
    assert(overlap / math.max(1, baseFrames.size) > 0.8,
           s"optimized plan diverges from baseline: $overlap/${baseFrames.size}")
  }

  test("saveVideos produces snippet manifests for matching queries") {
    val path = Files.createTempDirectory("spatialyze").resolve("q2.jsonl").toString
    val (snips, res) = world().filter(Queries.q2.pred).saveVideos(path)
    assert(res.rows.count() > 0)
    assert(snips.nonEmpty)
    snips.foreach(s => assert(s.startFrame <= s.endFrame))
    assert(Files.exists(java.nio.file.Paths.get(path)))
  }

  test("getObjects returns the matched movable objects with their samples") {
    val (objs, res) = world().filter(Queries.q2.pred).getObjects()
    assert(res.rows.count() > 0)
    assert(objs.count() > 0)
    assert(objs.columns.toSet === Set("sceneId", "oid", "frameIdx", "otype", "x", "y"))
  }

  test("repeated observe() calls leave no temp views behind") {
    val catalog = spark.sessionState.catalog
    val before  = catalog.listLocalTempViews("*").size
    // Q5 reads objects only; Q9's turn-left predicate reads track facts too.
    Seq(Queries.q5, Queries.q9, Queries.q5, Queries.q9, Queries.q5).zipWithIndex.foreach { case (q, i) =>
      world().filter(q.pred).observe(PlanConfig.all, s"${q.name}r$i").rows.count()
    }
    assert(catalog.listLocalTempViews("*").size === before)
  }

  test("observe, getObjects and saveVideos cache nothing") {
    frames.count(); gt.count()
    val dir = Files.createTempDirectory("spatialyze")
    for (q <- Seq(Queries.q1, Queries.q5, Queries.q8)) {
      val added = persistedBy {
        world().filter(q.pred).observe(PlanConfig.all, s"${q.name}c").rows.count()
        world().filter(q.pred).getObjects()._1.collect()
        world().filter(q.pred).saveVideos(dir.resolve(s"${q.name}.jsonl").toString)
      }
      assert(added.isEmpty, s"${q.name} persisted RDDs $added")
    }
  }

  // A predicate with no object reference is a camera query: the engine
  // anchors on the camera table, so it matches frames and no objects.
  private val camInIntersection = Contains(GeoRef("i", "intersection"), Seq(CamRef))

  /** The frames whose camera ground point lies in an intersection. */
  private lazy val camFrames: Set[(Long, Int)] = {
    val inters = net.ofType("intersection").map(_.polygon)
    frames.select("sceneId", "frameIdx", "camX", "camY").collect()
      .filter(r => inters.exists(_.contains(r.getDouble(2), r.getDouble(3))))
      .map(r => (r.getLong(0), r.getInt(1))).toSet
  }

  test("a predicate with no object reference returns the frames whose camera it holds") {
    val rows = world().filter(camInIntersection).observe(PlanConfig.all, "camI").rows
    assert(camFrames.nonEmpty, "the ego cameras cross intersections")
    assert(rows.columns.toSeq === Seq("sceneId", "frameIdx"))
    assert(rows.count() === camFrames.size)
    assert(frameSet(rows) === camFrames)
  }

  test("a predicate with no object reference returns the same frames under SB and S6") {
    val sb = world().filter(camInIntersection).observe(PlanConfig.baseline, "camIb").rows
    val s6 = world().filter(camInIntersection).observe(PlanConfig.all, "camIo").rows
    assert(frameSet(sb) === frameSet(s6))
  }

  test("getObjects of a predicate with no object reference is empty by design") {
    val (objs, _) = world().filter(camInIntersection).getObjects()
    assert(objs.columns.toSeq === Seq("sceneId", "frameIdx", "oid", "otype", "x", "y"))
    assert(objs.count() === 0)
  }

  test("saveVideos of a predicate with no object reference writes snippets of its frames") {
    val path = Files.createTempDirectory("spatialyze").resolve("cam.jsonl")
    val (snips, _) = world().filter(camInIntersection).saveVideos(path.toString)
    assert(snips.nonEmpty)
    assert(Files.readAllLines(path).size === snips.size)
    snips.foreach(s => assert(camFrames((s.sceneId, s.startFrame)) && camFrames((s.sceneId, s.endFrame)), s))
    camFrames.foreach { case (sid, f) =>
      assert(snips.exists(s => s.sceneId == sid && s.startFrame <= f && f <= s.endFrame), (sid, f))
    }
  }

  test("chained filters conjoin") {
    val single = world().filter(Queries.q5.pred).observe(PlanConfig.all, "Q5s").rows.count()
    val chained = world()
      .filter(Queries.q5.pred)
      .filter(repro.sflow.DistanceLt(repro.sflow.CamRef, Queries.person, 20.0))
      .observe(PlanConfig.all, "Q5c").rows.count()
    assert(chained <= single, "adding a filter cannot grow the result")
  }
}
