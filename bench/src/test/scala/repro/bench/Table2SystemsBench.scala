package repro.bench

import repro.exp.{Scenarios, SystemsExperiment, Tables}

/** Table 2 (§7.1 / Fig. 5a): Spatialyze vs EVA, VIVA, nuScenes devkit,
  * OTIF and SkyQuery. Shape assertions mirror the paper's claims.
  */
class Table2SystemsBench extends BenchBase {

  test("EVA comparison (Q5-Q8, run in series with warm UDF cache)") {
    val rows = SystemsExperiment.eva(spark, nuscenes)
    Tables.eva.emit(rows)
    rows.filter(r => Seq("Q5", "Q6", "Q7").contains(r.query)).foreach { r =>
      assert(r.speedup > 1.8 && r.speedup < 9.0, s"${r.query}: ${r.speedup}x outside the paper band")
    }
    val q8 = rows.find(_.query == "Q8").get
    assert(q8.speedup < math.max(1.6, rows.map(_.speedup).max * 0.7),
           s"Q8 should be the least favourable query for Spatialyze (self-joins), got ${q8.speedup}x")
  }

  test("VIVA comparison (Q9 on jackson-lite and nuScenes-lite)") {
    val jackson = Scenarios.jackson(spark, benchScenes)
    val rows    = SystemsExperiment.viva(spark, jackson, nuscenes)
    Tables.viva.emit(rows)
    val j = rows.find(_.dataset == "jackson").get
    val n = rows.find(_.dataset == "nuscenes").get
    assert(j.speedup > 1.1 && j.speedup < 3.5, s"jackson ${j.speedup}x (paper 1.68x)")
    assert(n.speedup > 3.0 && n.speedup < 10.0, s"nuscenes ${n.speedup}x (paper 6x)")
    assert(n.speedup > j.speedup, "the static camera must benefit less")
  }

  test("nuScenes devkit comparison (Movable-Objects Query Engine, Q1-Q4)") {
    val rows = SystemsExperiment.devkit(spark, nuscenes)
    Tables.devkit.emit(rows)
    val finished = rows.filterNot(_.oom)
    assert(finished.nonEmpty)
    finished.foreach { r =>
      assert(r.speedup > 80 && r.speedup < 1500, s"${r.query}: ${r.speedup}x (paper 117-716x)")
    }
    assert(rows.find(_.query == "Q4").get.oom, "Q4's triple self-join must OOM the devkit (paper §7.1.3)")
  }

  test("OTIF comparison (tracking throughput)") {
    val r = SystemsExperiment.otif(spark, nuscenes)
    Tables.otif.emit(Seq(r))
    assert(r.otifFps > 10 && r.otifFps < 30, s"OTIF ${r.otifFps} fps (paper 17.3)")
    assert(r.spatialyzeFpsMax > r.otifFps, "Spatialyze's best query beats OTIF without training")
    assert(r.spatialyzeFpsMin > 10, s"Spatialyze min fps ${r.spatialyzeFpsMin} (paper 18.3)")
  }

  test("SkyQuery comparison (aerial Q10)") {
    val sky = Scenarios.sky(spark, math.max(2, benchScenes / 4))
    val r   = SystemsExperiment.sky(spark, sky)
    Tables.sky.emit(Seq(r))
    assert(r.speedup > 1.05 && r.speedup < 1.6, s"${r.speedup}x (paper 1.18x)")
    assert(r.skyQueryFps > 3 && r.skyQueryFps < 10, s"${r.skyQueryFps} fps (paper 5.15)")
  }
}
