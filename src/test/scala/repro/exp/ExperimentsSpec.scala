package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.sflow.Queries

class ExperimentsSpec extends SparkSpec {

  private lazy val ds = Scenarios.nuscenes(spark, nScenes = 3)

  private lazy val ablation = AblationExperiment.run(spark, ds, queries = Seq(Queries.q2))

  test("ablation produces one row per (query, setup)") {
    assert(ablation.size === AblationExperiment.Setups.size)
    assert(ablation.map(_.setup) === AblationExperiment.Setups.map(_._1))
  }

  test("SB is the speedup reference (1.0) with perfect AssA") {
    val sb = ablation.find(_.setup == "SB").get
    assert(sb.speedup === 1.0)
    assert(sb.assA === 1.0)
    assert(sb.prunedFrames === 0.0 && sb.prunedDets === 0.0)
  }

  test("every single-optimization setup is at least as fast as SB") {
    ablation.filter(r => Seq("S1", "S2", "S3", "S4").contains(r.setup)).foreach { r =>
      assert(r.speedup >= 0.99, s"${r.setup} slower than SB: ${r.speedup}")
    }
  }

  test("S5 and S6 provide substantial speedups (paper band 2.5-5.3x)") {
    val s5 = ablation.find(_.setup == "S5").get
    val s6 = ablation.find(_.setup == "S6").get
    info(f"S5 ${s5.speedup}%.2f x, S6 ${s6.speedup}%.2f x")
    assert(s5.speedup > 2.0, s"S5 speedup ${s5.speedup}")
    assert(s6.speedup >= s5.speedup * 0.95, "EFS should not slow the full plan down")
  }

  test("S1 prunes frames, S2 prunes detections, and they stay accurate") {
    val s1 = ablation.find(_.setup == "S1").get
    val s2 = ablation.find(_.setup == "S2").get
    assert(s1.prunedFrames > 0.03, s"S1 pruned ${s1.prunedFrames}")
    assert(s2.prunedDets > 0.15, s"S2 pruned ${s2.prunedDets}")
    info(f"AssA: S1 ${s1.assA}%.3f S2 ${s2.assA}%.3f (paper: 0.95-0.99 / 0.95-0.97)")
    // Our RVP drops longer contiguous stretches than nuScenes driving
    // does, so tracks break harder across the gaps than the paper's 4.7%
    // drop — see EXPERIMENTS.md for the deviation note.
    assert(s1.assA > 0.65, s"S1 AssA ${s1.assA}")
    assert(s2.assA > 0.90, s"S2 AssA ${s2.assA} (class-aware tracker: pruning other types is free)")
  }

  test("S3 (geometry estimator) does not change tracking accuracy materially") {
    val s3 = ablation.find(_.setup == "S3").get
    assert(s3.assA > 0.9, s"S3 AssA ${s3.assA} (tracker only sees 2D boxes)")
  }

  test("S4/S6 (EFS) trade accuracy for speed (paper: ~84.5% average)") {
    val s4 = ablation.find(_.setup == "S4").get
    val s5 = ablation.find(_.setup == "S5").get
    val s6 = ablation.find(_.setup == "S6").get
    info(f"AssA: S4 ${s4.assA}%.3f S5 ${s5.assA}%.3f S6 ${s6.assA}%.3f")
    assert(s4.assA < 1.0, "frame sampling must cost some association accuracy")
    assert(s6.assA <= s5.assA + 0.02, "S6 (with EFS) should not beat S5")
    assert(s6.assA > 0.5, s"S6 AssA ${s6.assA} collapsed")
  }

  test("the ablation over Q1 and the seven setups caches nothing") {
    ds.frames.count(); ds.gtStates.count()
    val added = persistedBy(AblationExperiment.run(spark, ds, queries = Seq(Queries.q1)))
    assert(added.isEmpty, s"persisted RDDs $added")
  }

  test("the ablation over Q1 runs in 1 Spark job") {
    ds.frames.count(); ds.gtStates.count()
    // One scene pass runs the seven setups; the AssA scoring runs on the
    // driver, over what the pass left there.
    val work = sparkJobs("ablation-Q1")(AblationExperiment.run(spark, ds, queries = Seq(Queries.q1)))
    info(s"the ablation over Q1 ran $work")
    assert(work.jobs === 1, s"${work.jobs} Spark jobs")
  }

  test("skip-distance study produces buckets with decreasing runtime ratio") {
    val rows = SkipDistanceExperiment.run(ds)
    assert(rows.nonEmpty)
    info(rows.map(r => f"skip=${r.skip} gaps=${r.gaps} f1=${r.f1}%.2f ratio=${r.runtimeRatio}%.2f").mkString("; "))
    val smallSkip = rows.filter(_.skip <= 1).map(_.runtimeRatio)
    val bigSkip   = rows.filter(_.skip >= 8).map(_.runtimeRatio)
    if (smallSkip.nonEmpty && bigSkip.nonEmpty)
      assert(bigSkip.min < smallSkip.max, "larger skips must be relatively cheaper")
    rows.filter(_.skip >= 5).foreach { r =>
      assert(r.runtimeRatio < 1.0, s"skip ${r.skip} ratio ${r.runtimeRatio} not a saving")
    }
  }

  test("skip-distance F1 stays high for small skips") {
    val rows = SkipDistanceExperiment.run(ds)
    val small = rows.filter(r => r.skip >= 1 && r.skip <= 4 && r.gaps >= 5)
    small.foreach { r =>
      assert(r.f1 > 0.6, s"skip ${r.skip} F1 ${r.f1} too low (${r.gaps} gaps)")
    }
  }

  test("systems experiment: EVA rows have the paper's shape (faster on Q5-Q7, comparable Q8)") {
    val rows = SystemsExperiment.eva(spark, ds)
    assert(rows.map(_.query) === Seq("Q5", "Q6", "Q7", "Q8"))
    rows.foreach(r => info(f"${r.query}: EVA ${r.evaS}%.1f s vs Spatialyze ${r.spatialyzeS}%.1f s (${r.speedup}%.2f x)"))
    rows.filter(r => Seq("Q5", "Q6", "Q7").contains(r.query)).foreach { r =>
      assert(r.speedup > 1.5, s"${r.query} speedup ${r.speedup} (paper 2-7.3x)")
    }
    val q8 = rows.find(_.query == "Q8").get
    assert(q8.speedup > 0.4 && q8.speedup < 3.0, s"Q8 should be comparable, got ${q8.speedup}")
  }

  test("systems experiment: OTIF row straddles Spatialyze's optimized fps range") {
    val r = SystemsExperiment.otif(spark, ds)
    info(f"OTIF ${r.otifFps}%.1f fps; Spatialyze ${r.spatialyzeFpsMin}%.1f-${r.spatialyzeFpsMax}%.1f fps")
    assert(r.spatialyzeFpsMax > r.otifFps, "Spatialyze's best query must beat OTIF (paper: 18.3-39.5 vs 17.3)")
    assert(r.spatialyzeFpsMin > 5)
    assert(r.otifTrainMin > 60, "OTIF pays an hour of training")
  }

  test("tables render valid markdown and persist") {
    val md = Tables.markdown("T", Seq("a", "b"), Seq(Seq("1", "2")))
    assert(md.contains("| a | b |") && md.contains("| 1 | 2 |"))
    assert(Tables.fmt(3.14159) === "3.142")
    assert(Tables.fmt(1234567.0) === "1234567")
    assert(Tables.fmt(Double.PositiveInfinity) === "inf")
  }
}
