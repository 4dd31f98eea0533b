package repro.bench

import repro.SparkSpec
import repro.exp.{Dataset, Scenarios}

/** Shared scale/config for the benchmark suites. The default 16 scenes
  * (~64 MB of frame/state rows across the suites) keeps a full
  * `bench/test` run in minutes; REPRO_BENCH_SCENES scales it up.
  */
trait BenchBase extends SparkSpec {
  lazy val benchScenes: Int =
    sys.env.get("REPRO_BENCH_SCENES").map(_.toInt).getOrElse(16)

  lazy val nuscenes: Dataset = BenchBase.nuscenesCache.synchronized {
    BenchBase.nuscenesCache.getOrElseUpdate(benchScenes, Scenarios.nuscenes(spark, benchScenes))
  }
}

object BenchBase {
  private val nuscenesCache = scala.collection.mutable.Map.empty[Int, Dataset]
}
