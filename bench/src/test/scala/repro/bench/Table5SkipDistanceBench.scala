package repro.bench

import repro.exp.{SkipDistanceExperiment, Tables}

/** Table 5 (§6.4.3 / Fig. 4c): Exit Frame Sampler skip-distance study —
  * F1 of tracking continuity and relative runtime per skip distance.
  */
class Table5SkipDistanceBench extends BenchBase {

  test("Table 5: F1 and runtime ratio per skip distance") {
    val rows = SkipDistanceExperiment.run(nuscenes)
    Tables.skipDistance.emit(rows)

    assert(rows.nonEmpty)
    val populated = rows.filter(_.gaps >= 10)
    assert(populated.nonEmpty, "need populated skip buckets")

    // Runtime ratio decreases with skip distance (Fig. 4c's red curve).
    val small = populated.filter(_.skip <= 2)
    val large = populated.filter(_.skip >= 8)
    if (small.nonEmpty && large.nonEmpty)
      assert(large.map(_.runtimeRatio).min < small.map(_.runtimeRatio).min,
             "long skips must be relatively cheaper")
    populated.filter(_.skip >= 6).foreach { r =>
      assert(r.runtimeRatio < 0.9, s"skip ${r.skip} ratio ${r.runtimeRatio}")
    }

    // F1 stays usable through the paper's chosen max skip of 13.
    populated.filter(r => r.skip >= 1 && r.skip <= 13).foreach { r =>
      assert(r.f1 > 0.5, s"skip ${r.skip} F1 ${r.f1} (${r.gaps} gaps)")
    }

    // Weighted average over the Fig. 4c domain (gaps where the sampler
    // skipped at least 1 frame; the paper reports 39% runtime at an
    // average skip of 3.6 there).
    val skipping = rows.filter(_.skip >= 1)
    val totGaps  = skipping.map(_.gaps).sum.toDouble
    assert(totGaps > 0, "sampler never skipped")
    val avgRatio = skipping.map(r => r.runtimeRatio * r.gaps).sum / totGaps
    val avgSkip  = skipping.map(r => r.skip.toDouble * r.gaps).sum / totGaps
    val skip0    = rows.filter(_.skip == 0).map(_.gaps).sum.toDouble
    info(f"avg skip $avgSkip%.1f over skipping gaps, weighted runtime ratio ${avgRatio * 100}%.0f%%, " +
         f"non-skipping gaps ${skip0 / (skip0 + totGaps) * 100}%.0f%%")
    assert(avgRatio < 0.7, s"sampler does not pay off where it skips: $avgRatio")
  }
}
