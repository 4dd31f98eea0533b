package repro.bench

import repro.exp.{QueriesExperiment, Scenarios, Tables}

/** Table 1: all ten evaluation queries run end-to-end through the
  * build–filter–observe workflow with every applicable optimization.
  */
class Table1QueriesBench extends BenchBase {

  test("Table 1: Q1-Q10 end-to-end") {
    val rows = QueriesExperiment.run(spark, nuscenes, Scenarios.sky(spark, math.max(2, benchScenes / 4)))
    Tables.queries.emit(rows)

    // Shape: the generator plants matches for the core scenarios. Q3's
    // wrong-way scenes are a seeded 25% of scenes, so require them only
    // at full bench scale.
    val byName   = rows.map(r => r.query -> r.matches).toMap
    val required = Seq("Q1", "Q2", "Q5", "Q6", "Q10") ++
      (if (benchScenes >= 16) Seq("Q3", "Q9") else Nil)
    required.foreach { n =>
      assert(byName(n) > 0, s"$n must match in the synthetic world")
    }
    assert(rows.forall(_.matches >= 0))
  }
}
