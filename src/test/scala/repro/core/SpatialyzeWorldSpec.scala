package repro.core

import java.nio.file.Files
import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.sflow.Queries
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

  /** Run `check` on a workflow's result, then free the workflow's cache.
    * A scene pass left cached is dropped by Spark's context cleaner at
    * some later GC, which may fall inside another test's count of cached
    * RDDs.
    */
  private def observing[A](res: ObserveResult)(check: ObserveResult => A): A =
    try check(res) finally res.release()

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
      observing(world().filter(q.pred).observe(PlanConfig.all, q.name)) { res =>
        val n = res.rows.count()
        info(s"${q.name}: $n matching rows")
        assert(n > 0, s"${q.name} should match in the synthetic world")
        assert(res.rows.columns.contains("sceneId") && res.rows.columns.contains("frameIdx"))
      }
    }
  }

  // The remaining nuScenes queries must at least execute cleanly end to
  // end with all optimizations (matches depend on rarer configurations).
  Seq(Queries.q3, Queries.q4, Queries.q7, Queries.q8, Queries.q9).foreach { q =>
    test(s"${q.name} executes end-to-end (${q.description})") {
      observing(world().filter(q.pred).observe(PlanConfig.all, q.name)) { res =>
        assert(res.rows.count() >= 0)
        assert(res.stats.framesTotal === frames.count())
        assert(res.workflowMs > 0)
      }
    }
  }

  test("Q10 end-to-end on the aerial dataset finds stopped cars in bike lanes") {
    val sp  = WorldParams.sky(nFlights = 3)
    observing(new SpatialyzeWorld(spark, sp.fps)
      .addGeogConstructs(RoadNetwork.grid(sp.grid))
      .addVideo(WorldGen.frames(spark, sp), WorldGen.gtStates(spark, sp))
      .filter(Queries.q10Aerial.pred)
      .observe(PlanConfig(rvp = true, otp = false, geom3d = false, efs = false), "Q10a")) { res =>
      val n = res.rows.count()
      info(s"Q10a: $n matching rows, pruned ${res.stats.prunedFrameFraction * 100}%")
      assert(n > 0, "aerial dataset must contain stopped cars in bike lanes")
      assert(res.stats.rvpApplied)
    }
  }

  test("optimized and baseline plans return consistent match sets for Q5") {
    def matchedFrames(config: PlanConfig, name: String) =
      observing(world().filter(Queries.q5.pred).observe(config, name)) {
        _.rows.select("sceneId", "frameIdx").distinct().collect()
          .map(r => (r.getLong(0), r.getInt(1))).toSet
      }
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
    observing(res) { res =>
      assert(res.rows.count() > 0)
      assert(objs.count() > 0)
      assert(objs.columns.toSet === Set("sceneId", "oid", "frameIdx", "otype", "x", "y"))
    }
  }

  test("repeated observe() calls leave no temp views behind") {
    val catalog = spark.sessionState.catalog
    val before  = catalog.listLocalTempViews("*").size
    // Q5 reads objects only; Q9's turn-left predicate reads track facts too.
    Seq(Queries.q5, Queries.q9, Queries.q5, Queries.q9, Queries.q5).zipWithIndex.foreach { case (q, i) =>
      observing(world().filter(q.pred).observe(PlanConfig.all, s"${q.name}r$i"))(_.rows.count())
    }
    assert(catalog.listLocalTempViews("*").size === before)
  }

  test("saveVideos releases what the workflow cached") {
    val sc = spark.sparkContext
    frames.count(); gt.count()
    val before = sc.getPersistentRDDs.size
    val dir    = Files.createTempDirectory("spatialyze")
    Seq(Queries.q2, Queries.q5, Queries.q8).foreach { q =>
      world().filter(q.pred).saveVideos(dir.resolve(s"${q.name}.jsonl").toString)
    }
    assert(sc.getPersistentRDDs.size === before)
  }

  test("observe() caches only the scene pass, and release() frees it") {
    val sc      = spark.sparkContext
    val catalog = spark.sessionState.catalog
    frames.count(); gt.count()
    // Only additions count: the context cleaner may drop another suite's
    // forgotten cache meanwhile.
    def added(before: Set[Int]) = sc.getPersistentRDDs.keySet.toSet -- before
    for (q <- Seq(Queries.q1, Queries.q5)) {
      val before = sc.getPersistentRDDs.keySet.toSet
      val views  = catalog.listLocalTempViews("*").size
      observing(world().filter(q.pred).observe(PlanConfig.all, s"${q.name}c")) { res =>
        assert(added(before).size === 1, s"${q.name}: one persisted RDD")
        assert(added(before) === res.process.cached.map(_.id).toSet, s"${q.name}: the scene pass")
      }
      assert(added(before).isEmpty && catalog.listLocalTempViews("*").size === views)
    }
  }

  test("chained filters conjoin") {
    val single = observing(world().filter(Queries.q5.pred).observe(PlanConfig.all, "Q5s"))(_.rows.count())
    val chained = observing(world()
      .filter(Queries.q5.pred)
      .filter(repro.sflow.DistanceLt(repro.sflow.CamRef, Queries.person, 20.0))
      .observe(PlanConfig.all, "Q5c"))(_.rows.count())
    assert(chained <= single, "adding a filter cannot grow the result")
  }
}
