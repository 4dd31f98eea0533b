package repro.bench

import repro.exp.{AblationExperiment, Tables}

/** Table 3 (§7.2.1 / Fig. 5b): runtime ablation of the four optimizations
  * over Q1-Q4.
  */
class Table3AblationRuntimeBench extends BenchBase {

  test("Table 3: ablation runtimes SB,S1..S6 on Q1-Q4") {
    val rows = AblationExperiment.run(spark, nuscenes)
    Table3AblationRuntimeBench.cache = Some(rows)

    Tables.ablationRuntime.emit(rows)

    def row(q: String, s: String) = rows.find(r => r.query == q && r.setup == s).get

    // Baseline lands near the paper's ~30 s of video processing per video.
    Seq("Q1", "Q2", "Q3", "Q4").foreach { q =>
      val sb = row(q, "SB").videoMsPerVideo / 1000.0
      assert(sb > 22 && sb < 40, s"$q SB ${sb}s per video (paper ~30.6s)")
    }

    // Full-plan speedups in (or near) the paper's 2.5-5.3x band.
    Seq("Q1", "Q2", "Q3", "Q4").foreach { q =>
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
    Seq("Q1", "Q2", "Q3", "Q4").foreach { q =>
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
}

object Table3AblationRuntimeBench {
  /** Shared with the accuracy bench so the 28 pipeline runs happen once. */
  @volatile var cache: Option[Seq[repro.exp.AblationRow]] = None
}
