package repro.bench

import repro.exp.{AblationExperiment, Tables}

/** Table 4 (§7.2.2 / Fig. 5c): tracking-accuracy ablation — AssA of each
  * optimized plan against the unoptimized (SB) tracks.
  */
class Table4AblationAccuracyBench extends BenchBase {

  test("Table 4: AssA of S1,S2,S4,S5,S6 vs SB on Q1-Q4") {
    val rows = Table3AblationRuntimeBench.cache.getOrElse(AblationExperiment.run(spark, nuscenes))
    Tables.ablationAccuracy.emit(rows)

    def row(q: String, s: String) = rows.find(r => r.query == q && r.setup == s).get

    val queries = Seq("Q1", "Q2", "Q3", "Q4")

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
