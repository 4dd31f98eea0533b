package repro.bench

import repro.exp.{AblationExperiment, Tables}

/** Tables 3 and 4 (§7.2): the runtime ablation of the four optimizations
  * over Q1-Q4 (§7.2.1 / Fig. 5b) and its tracking accuracy, AssA of each
  * optimized plan against the unoptimized (SB) tracks (§7.2.2 / Fig. 5c).
  * Both tables come from one ablation run.
  */
class AblationBench extends BenchBase {

  private lazy val rows = AblationExperiment.run(spark, nuscenes)

  private def row(q: String, s: String) = rows.find(r => r.query == q && r.setup == s).get

  private val queries = Seq("Q1", "Q2", "Q3", "Q4")

  test("Table 3: ablation runtimes SB,S1..S6 on Q1-Q4") {
    Tables.ablationRuntime.emit(rows)

    // Baseline lands near the paper's ~30 s of video processing per video.
    queries.foreach { q =>
      val sb = row(q, "SB").videoMsPerVideo / 1000.0
      assert(sb > 22 && sb < 40, s"$q SB ${sb}s per video (paper ~30.6s)")
    }

    // Full-plan speedups in (or near) the paper's 2.5-5.3x band.
    queries.foreach { q =>
      val sp = row(q, "S6").speedup
      assert(sp > 2.2 && sp < 6.5, s"$q S6 speedup ${sp}x (paper 2.5-5.3x)")
    }

    // RVP prunes much more for intersection queries than lane queries.
    val rvpQ1 = row("Q1", "S1").prunedFrames
    val rvpQ3 = row("Q3", "S1").prunedFrames
    assert(rvpQ1 > 0.10 && rvpQ1 < 0.45, s"Q1 RVP pruned $rvpQ1 (paper 21.5%)")
    assert(rvpQ3 < 0.12, s"Q3 RVP pruned $rvpQ3 (paper 3.8%)")
    assert(rvpQ1 > rvpQ3)

    // OTP prunes ~36.5% for vehicle queries, ~86.3% for pedestrians.
    val otpQ1 = row("Q1", "S2").prunedDets
    val otpQ2 = row("Q2", "S2").prunedDets
    assert(otpQ1 > 0.70, s"Q1 OTP pruned $otpQ1 (paper 86.3%)")
    assert(otpQ2 > 0.20 && otpQ2 < 0.60, s"Q2 OTP pruned $otpQ2 (paper 36.5%)")

    // GE collapses the 3D-estimation share (48% -> ~0.5%): S3 alone is a
    // large win on every query.
    queries.foreach { q =>
      assert(row(q, "S3").speedup > 1.6, s"$q S3 speedup ${row(q, "S3").speedup}")
    }

    // S4 (EFS alone) helps modestly; EFS never applies to Q1 (pedestrians).
    assert(row("Q1", "S4").speedup === 1.0, "EFS must not engage for Q1")
    Seq("Q2", "Q3", "Q4").foreach { q =>
      assert(row(q, "S4").speedup >= 1.0, s"$q S4 slowed down")
    }

    // Monotonicity: S6 >= S5 (EFS only removes tracker work).
    Seq("Q2", "Q3", "Q4").foreach { q =>
      assert(row(q, "S6").speedup >= row(q, "S5").speedup * 0.98, s"$q S6 < S5")
    }
  }

  test("Table 4: AssA of S1,S2,S4,S5,S6 vs SB on Q1-Q4") {
    Tables.ablationAccuracy.emit(rows)

    // S2 (OTP) barely hurts: pruned types never shared tracks with kept ones.
    queries.foreach(q => assert(row(q, "S2").assA > 0.9, s"$q S2 AssA ${row(q, "S2").assA}"))

    // S3 (geometry 3D) leaves 2D tracking untouched (paper omits it as a no-op).
    queries.foreach(q => assert(row(q, "S3").assA > 0.97, s"$q S3 AssA ${row(q, "S3").assA}"))

    // S1 (RVP) costs accuracy across the pruned gaps but stays usable.
    queries.foreach(q => assert(row(q, "S1").assA > 0.6, s"$q S1 AssA ${row(q, "S1").assA}"))

    // EFS trades accuracy for speed: S6 below S5 wherever EFS engages,
    // and Q1 (no EFS) keeps S6 == S5-level accuracy.
    Seq("Q2", "Q3", "Q4").foreach { q =>
      assert(row(q, "S6").assA <= row(q, "S5").assA + 0.02, s"$q: S6 should not beat S5")
      assert(row(q, "S4").assA < 0.999, s"$q: EFS must cost some association accuracy")
    }

    // Average S5 accuracy stays high (paper 93.4%); S6 lower (paper 84.5%).
    val s5avg = queries.map(q => row(q, "S5").assA).sum / 4
    val s6avg = queries.map(q => row(q, "S6").assA).sum / 4
    info(f"S5 avg AssA ${s5avg * 100}%.1f%% (paper 93.4%%), S6 avg ${s6avg * 100}%.1f%% (paper 84.5%%)")
    assert(s5avg > 0.65, s"S5 average AssA $s5avg")
    assert(s6avg > 0.5, s"S6 average AssA $s6avg")
    assert(s6avg <= s5avg + 0.01, "the full plan trades accuracy for its extra speed")
  }
}
