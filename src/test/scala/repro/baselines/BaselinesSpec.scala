package repro.baselines

import repro.SparkSpec
import repro.core.DataFrameDetector
import repro.exp.{Scenarios, SystemsExperiment}
import repro.sflow.{Analyzer, And, CamRef, DistanceLt, Pred, Queries, Query}
import repro.video.{CostModel, DetRow, Estimators}

class BaselinesSpec extends SparkSpec {

  private lazy val nus = Scenarios.nuscenes(spark, nScenes = 3)
  private lazy val jak = Scenarios.jackson(spark, nClips = 3)
  private lazy val sky = Scenarios.sky(spark, nFlights = 2)

  private val evaSeries = Seq(Queries.q5, Queries.q6, Queries.q7, Queries.q8)

  /** Q7 with its car anywhere within 50 m of the camera, not 10 m. */
  private val q7Wide = Queries.q7.copy(name = "Q7w", pred = And(Pred.conjuncts(Queries.q7.pred).map {
    case DistanceLt(CamRef, o, 10.0) => DistanceLt(CamRef, o, Analyzer.DefaultVisibilityDistance)
    case p                           => p
  }))

  /** EVA's answer through the whole-DataFrame detector: detect → ml →
    * filter → per-frame count, then the frames whose count reaches the
    * object references.
    */
  private def evaReference(q: Query): Long = {
    import spark.implicits._
    val keep = EvaSim.keeps(nus.net, q)
    DataFrameDetector.detect(spark, nus.frames, nus.gtStates).as[DetRow]
      .filter(d => keep(d.frame, Estimators.mlOne(d)))
      .groupByKey(d => (d.sceneId, d.frameIdx)).count()
      .filter(_._2 >= q.requirements.objRefs.size)
      .count()
  }

  private def eva(queries: Query*): Seq[EvaRun] = EvaSim.run(nus.frames, nus.gtStates, nus.net, queries)

  test("EVA: the first query pays the detector, later queries hit the materialized cache") {
    val Seq(r5, r6) = eva(Queries.q5, Queries.q6)
    assert(r5.modeledMs > r6.modeledMs, "cache must make the second query cheaper")
    val perFrameDelta = (r5.modeledMs - r6.modeledMs) / nus.frames.count()
    assert(math.abs(perFrameDelta - (CostModel.DecodeMs + CostModel.YoloMs - CostModel.EvaCacheReadMs)) < 1e-6)
  }

  test("EVA: still pays the depth model on every query (why Spatialyze wins Q5-Q7)") {
    val Seq(r6) = eva(Queries.q6)
    assert(r6.modeledMs > CostModel.MonodepthMs * nus.frames.count())
  }

  test("EVA produces matching frames for the built-in scenarios") {
    val Seq(r5) = eva(Queries.q5)
    assert(r5.resultFrames > 0, "pedestrians at intersections exist in the world")
  }

  test("EVA applies the query's camera-distance bound (Q7: a car within 10 m)") {
    assert(q7Wide.pred != Queries.q7.pred)
    val Seq(near, far) = eva(Queries.q7, q7Wide).map(_.resultFrames)
    info(s"Q7 EVA frames: $near within 10 m, $far within 50 m")
    assert(near < far)
  }

  test("EVA's frames match the whole-DataFrame detector's (Q5-Q8, and Q7 within 50 m)") {
    val queries = evaSeries :+ q7Wide
    eva(queries: _*).zip(queries).foreach { case (r, q) =>
      assert(r.resultFrames === evaReference(q), q.name)
    }
  }

  test("EVA runs Q5-Q8 in series in at most 8 Spark jobs") {
    val work = sparkJobs("eva-series")(eva(evaSeries: _*))
    info(s"EVA Q5-Q8 ran $work")
    assert(work.jobs <= 8 && work.tasks < 64, s"EVA Q5-Q8 ran $work")
  }

  test("an EVA series and its Spatialyze runs leave no cache behind") {
    val ds = nus
    assert(persistedBy(SystemsExperiment.eva(spark, ds)).isEmpty)
  }

  test("VIVA comparison: speedup on the static jackson camera is smaller than on nuScenes") {
    val j = VivaSim.compare(spark, "jackson", jak.frames, jak.gtStates, jak.net, Queries.q9, jak.fps)
    val n = VivaSim.compare(spark, "nuscenes", nus.frames, nus.gtStates, nus.net, Queries.q9, nus.fps)
    info(f"jackson ${j.speedup}%.2f x, nuscenes ${n.speedup}%.2f x (paper: 1.68x / 6x)")
    assert(j.speedup > 1.0, "Spatialyze must beat VIVA on jackson")
    assert(n.speedup > j.speedup, "moving-camera dataset must benefit more (RVP + no depth)")
  }

  test("devkit comparison: three-digit speedups from index-free cross products (paper 117-716x)") {
    val proc = repro.core.VideoProcessor.run(spark, nus.frames, nus.gtStates, nus.net,
                                             Queries.q2, repro.core.PlanConfig.baseline, nus.fps)
    val r = DevkitSim.compare(Queries.q2, proc.objs, nus.roadCountsByType)
    info(f"Q2 devkit speedup ${r.speedup}%.0f x")
    assert(!r.oom)
    assert(r.speedup > 50 && r.speedup < 2000, s"speedup ${r.speedup} outside plausible band")
  }

  test("devkit comparison: Q4's triple self-join exceeds memory (the paper's OOM)") {
    val proc = repro.core.VideoProcessor.run(spark, nus.frames, nus.gtStates, nus.net,
                                             Queries.q2, repro.core.PlanConfig.baseline, nus.fps)
    val r = DevkitSim.compare(Queries.q4, proc.objs, nus.roadCountsByType)
    assert(r.oom, s"Q4 devkit rows ${r.devkitRows} should exceed ${CostModel.DevkitOomRows}")
  }

  test("OTIF: throughput lands near the paper's 17.3 fps and training time is reported") {
    val r = OtifSim.run(nus.frames, nus.gtStates)
    info(f"OTIF ${r.fps}%.1f fps (paper 17.3)")
    assert(r.fps > 10 && r.fps < 30, s"OTIF fps ${r.fps}")
    assert(r.trainMs === CostModel.OtifTrainMs)
  }

  test("OTIF's unit counts match the whole-DataFrame detector's") {
    val r    = OtifSim.run(nus.frames, nus.gtStates)
    val dets = DataFrameDetector.detect(spark, nus.frames, nus.gtStates)
    assert(r.frames === nus.frames.count())
    assert(r.framesWithDets === dets.select("frame.sceneId", "frame.frameIdx").distinct().count())
    assert(r.detections === dets.count())
  }

  test("OTIF runs in one Spark job") {
    nus.frames.count(); nus.gtStates.count()
    val work = sparkJobs("otif")(OtifSim.run(nus.frames, nus.gtStates))
    info(s"OTIF ran $work")
    assert(work.jobs === 1, s"OTIF ran $work")
  }

  test("OTIF leaves no cache behind") {
    nus.frames.count(); nus.gtStates.count()
    assert(persistedBy(OtifSim.run(nus.frames, nus.gtStates)).isEmpty)
  }

  test("SkyQuery: Spatialyze's RVP yields a moderate speedup on the aerial workload (paper 1.18x)") {
    val r = SkyQuerySim.compare(spark, sky.frames, sky.gtStates, sky.net, Queries.q10Aerial, sky.fps)
    info(f"SkyQuery ${r.skyQueryFps}%.2f fps vs Spatialyze ${r.spatialyzeFps}%.2f fps " +
         f"(${r.speedup}%.2f x, pruned ${r.prunedFraction * 100}%.1f%%)")
    assert(r.speedup > 1.0, "RVP must prune some frames")
    assert(r.speedup < 2.0, "aerial pruning should be moderate")
    assert(r.prunedFraction > 0.02 && r.prunedFraction < 0.6, s"pruned ${r.prunedFraction}")
  }

  test("SkyQuery fps values are in the paper's single-digit ballpark") {
    val r = SkyQuerySim.compare(spark, sky.frames, sky.gtStates, sky.net, Queries.q10Aerial, sky.fps)
    assert(r.skyQueryFps > 2 && r.skyQueryFps < 12, s"${r.skyQueryFps} (paper 5.15)")
    assert(r.spatialyzeFps > r.skyQueryFps)
  }
}
