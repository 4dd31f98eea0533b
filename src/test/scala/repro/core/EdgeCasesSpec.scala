package repro.core

import java.nio.file.Files

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.sflow._
import repro.world.{GridParams, RoadNetwork, WorldGen, WorldParams}

/** Degenerate-input robustness of the workflow executor. */
class EdgeCasesSpec extends SparkSpec {

  private val p   = WorldParams.nuscenes(nScenes = 2)
  private val net = RoadNetwork.grid(p.grid)
  private lazy val frames = WorldGen.frames(spark, p).persist()
  private lazy val gt     = WorldGen.gtStates(spark, p).persist()

  private def world() =
    new SpatialyzeWorld(spark, p.fps).addGeogConstructs(net).addVideo(frames, gt)

  test("a query on a construct type that never appears prunes every frame and returns nothing") {
    // observe() rejects such a query up front (below); the layers it would
    // run are safe on their own.
    val car = ObjRef("car")
    val query = Query("edge1", "edge1", Pred.and(TypeIs(car, Set("car")),
                                                 Contains(GeoRef("g", "heliport"), Seq(car)),
                                                 DistanceLt(CamRef, car, 50.0)))
    val proc = VideoProcessor.run(spark, frames, gt, net, query, PlanConfig.all, p.fps)
    assert(proc.stats.framesAfterRvp === 0L, "RVP prunes everything: no heliport exists")
    val qr = QueryEngine.run(spark, query, proc.objs, QueryEngine.cams(frames), net.toDF(spark), p.fps)
    assert(qr.rows.count() === 0L)
  }

  /** Runs `body` in job group `group` and asserts that it started no
    * Spark job. Job-start events reach the status tracker asynchronously
    * but in order: once a later marker job shows, any job of `group`
    * would too.
    */
  private def withoutSparkJob[T](group: String)(body: => T): T = {
    val sc = spark.sparkContext
    sc.setJobGroup(group, group)
    val out = try body finally sc.clearJobGroup()
    val marker = s"$group-marker"
    sc.setJobGroup(marker, marker)
    try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
    val deadline = System.nanoTime() + 10e9.toLong
    while (sc.statusTracker.getJobIdsForGroup(marker).isEmpty && System.nanoTime() < deadline)
      Thread.sleep(20)
    assert(sc.statusTracker.getJobIdsForGroup(marker).nonEmpty)
    assert(sc.statusTracker.getJobIdsForGroup(group).isEmpty, "the check ran a Spark job")
    out
  }

  test("observe() rejects an unknown construct type, naming it and the known ones, before any Spark job") {
    val car = ObjRef("car")
    val typo = world().filter(Pred.and(TypeIs(car, Set("car")),
                                       Contains(GeoRef("l", "lanee"), Seq(car))))
    val e = withoutSparkJob("edge-unknown-construct")(
      intercept[IllegalArgumentException](typo.observe(PlanConfig.all, "edge-typo")))
    assert(e.getMessage.contains("'lanee'"), e.getMessage)
    Seq("bikeLane", "intersection", "lane", "lanegroup", "roadsection")
      .foreach(t => assert(e.getMessage.contains(s"'$t'"), e.getMessage))
  }

  test("observe() rejects a construct used as a point, naming it, before any Spark job") {
    // A construct has no x or y column to measure from, and a `contains`
    // must name what it contains.
    val car = ObjRef("car"); val i = GeoRef("i", "intersection")
    Seq(DistanceLt(i, car, 10.0), DistanceLt(CamRef, i, 10.0),
        Contains(GeoRef("l", "lane"), Seq(car, i)), Contains(i, Nil)).zipWithIndex.foreach { case (atom, n) =>
      val w = world().filter(Pred.and(TypeIs(car, Set("car")), DistanceLt(CamRef, car, 50.0), atom))
      val e = withoutSparkJob(s"edge-construct-point-$n")(
        intercept[IllegalArgumentException](w.observe(PlanConfig.all, s"edge-point-$n")))
      assert(e.getMessage.contains("'i' (intersection)"), s"$atom: ${e.getMessage}")
    }
  }

  test("a query on an object type that never appears returns nothing but runs") {
    val uni = ObjRef("u")
    val pred = Pred.and(TypeIs(uni, Set("unicorn")),
                        Contains(GeoRef("i", "intersection"), Seq(uni)),
                        DistanceLt(CamRef, uni, 50.0))
    val res = world().filter(pred).observe(PlanConfig.all, "edge2")
    assert(res.stats.detsAfterOtp === 0L)
    assert(res.rows.count() === 0L)
    assert(OutputComposer.snippets(res.rows).isEmpty)
  }

  test("an impossible distance bound returns nothing") {
    val car = ObjRef("car")
    val pred = Pred.and(TypeIs(car, Set("car")), DistanceLt(CamRef, car, 0.01))
    val res = world().filter(pred).observe(PlanConfig.all, "edge3")
    assert(res.rows.count() === 0L)
  }

  test("Or predicates compile and widen the result") {
    val o = ObjRef("o")
    val carsOnly = world().filter(Pred.and(
      TypeIs(o, Set("car")), DistanceLt(CamRef, o, 50.0))).observe(PlanConfig.baseline, "edge4a")
    val carsOrPeds = world().filter(Pred.and(
      Or(Seq(TypeIs(o, Set("car")), TypeIs(o, Set("pedestrian")))),
      DistanceLt(CamRef, o, 50.0))).observe(PlanConfig.baseline, "edge4b")
    assert(carsOrPeds.rows.count() >= carsOnly.rows.count())
    assert(carsOrPeds.sql.contains(" OR "))
  }

  test("an Or at the top level disables OTP (unconstrained semantics stay sound)") {
    val o = ObjRef("o")
    val pred = Pred.and(Or(Seq(TypeIs(o, Set("car")), Contains(GeoRef("i", "intersection"), Seq(o)))),
                        DistanceLt(CamRef, o, 50.0))
    val req = Analyzer.analyze(pred)
    assert(req.typesOfInterest.isEmpty, "Or-ed type constraint must not trigger OTP")
    assert(req.rvpTargets.isEmpty, "Or-ed contains must not trigger RVP")
  }

  test("a scene with no objects runs end to end") {
    // Empty by design: a video with no detections matches nothing, on the
    // tracker path (Q1) and through the three-way self-join (Q8) alike.
    val empty = WorldParams.nuscenes(nScenes = 1).copy(nFrames = 1, nObjects = 1)
    val f = WorldGen.frames(spark, empty)
    val g = WorldGen.gtStates(spark, empty).filter("oid < 0") // no objects
    val dir = Files.createTempDirectory("edge5")
    Seq((Queries.q5, PlanConfig.all), (Queries.q1, PlanConfig.baseline), (Queries.q1, PlanConfig.all),
        (Queries.q8, PlanConfig.all)).foreach { case (q, config) =>
      def world() = new SpatialyzeWorld(spark, empty.fps).addGeogConstructs(net).addVideo(f, g).filter(q.pred)
      val clue = s"${q.name} $config"
      val (objs, res) = world().getObjects(config)
      assert(res.rows.count() === 0L, clue)
      assert(res.stats.detections === 0L && res.stats.trackerDets === 0L, clue)
      assert(res.stats.trackerRan === q.requirements.needsTracking, clue)
      assert(objs.columns.toSet === Set("sceneId", "frameIdx", "oid", "otype", "x", "y"), clue)
      assert(objs.count() === 0L, clue)
      val path = dir.resolve(s"${q.name}.jsonl")
      val (snips, _) = world().saveVideos(path.toString, config)
      assert(snips.isEmpty && Files.size(path) === 0L, clue)
    }
  }

  test("a world with no frames returns no rows and all-zero counts") {
    val none = new SpatialyzeWorld(spark, p.fps).addGeogConstructs(net)
      .addVideo(frames.filter("sceneId < 0"), gt.filter("sceneId < 0"))
      .filter(Queries.q2.pred).observe(PlanConfig.all, "edge-empty")
    assert(none.rows.count() === 0L)
    val s = none.stats
    assert(Seq(s.framesTotal, s.framesAfterRvp, s.detections, s.detsAfterOtp, s.depthFrames,
               s.geomDets, s.trackerFrames, s.trackerDets, s.trackerPairOps,
               s.queryRowsExamined).forall(_ == 0L), s"nonzero counts in $s")
  }

  test("adding the same video twice fails observe() with an error naming the scene") {
    val twice = world().addVideo(frames, gt).filter(Queries.q5.pred)
    val e = intercept[Exception](twice.observe(PlanConfig.all, "edge-dup"))
    val messages = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).map(_.getMessage)
    assert(messages.exists(m => m != null && m.matches("(?s).*scene [01] repeats a frameIdx.*")),
           s"unexpected error: $e")
  }

  test("a tiny grid road network still supports the pipeline") {
    val tiny    = RoadNetwork.grid(GridParams(nx = 2, ny = 2, bikeLaneEvery = 0))
    assert(tiny.ofType("bikeLane").isEmpty)
    val tinyRes = new SpatialyzeWorld(spark, p.fps).addGeogConstructs(tiny)
      .addVideo(frames, gt).filter(Queries.q5.pred).observe(PlanConfig.all, "edge6")
    assert(tinyRes.rows.count() >= 0L)
  }
}
