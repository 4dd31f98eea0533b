package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp._

/** Shared session bootstrap for the spark-submit entrypoints. */
object JobSession {
  def spark(name: String): SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** The scene count in the first argument, `default` without one. A
    * count that is not a positive integer would build an empty world.
    */
  def scenes(args: Array[String], default: Int): Int =
    args.headOption.fold(default) { a =>
      val n = a.toIntOption.filter(_ > 0)
      require(n.isDefined, s"scene count '$a' must be a positive integer")
      n.get
    }
}

/** Table 1: run every Q1–Q10 workflow end-to-end and report match counts. */
object Table1Queries {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.spark("table1-queries")
    val n     = JobSession.scenes(args, 24)
    Tables.queries.emit(QueriesExperiment.run(spark, Scenarios.nuscenes(spark, n),
                                              Scenarios.sky(spark, math.max(2, n / 4))))
    spark.stop()
  }
}

/** Table 2 (§7.1 / Fig. 5a): comparisons against EVA, VIVA, nuScenes
  * devkit, OTIF and SkyQuery.
  */
object Table2Systems {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.spark("table2-systems")
    val n     = JobSession.scenes(args, 24)
    val nus   = Scenarios.nuscenes(spark, n)
    Tables.eva.emit(SystemsExperiment.eva(spark, nus))
    Tables.viva.emit(SystemsExperiment.viva(spark, Scenarios.jackson(spark, math.max(4, n)), nus))
    Tables.devkit.emit(SystemsExperiment.devkit(spark, nus))
    Tables.otif.emit(Seq(SystemsExperiment.otif(spark, nus)))
    Tables.sky.emit(Seq(SystemsExperiment.sky(spark, Scenarios.sky(spark, math.max(2, n / 4)))))
    spark.stop()
  }
}

/** Tables 3 (§7.2.1 / Fig. 5b) and 4 (§7.2.2 / Fig. 5c): per-optimization
  * runtime ablation and tracking accuracy (AssA), from one ablation run.
  */
object Table3And4Ablation {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.spark("table3-4-ablation")
    val rows  = AblationExperiment.run(spark, Scenarios.nuscenes(spark, JobSession.scenes(args, 24)))
    Tables.ablationRuntime.emit(rows)
    Tables.ablationAccuracy.emit(rows)
    spark.stop()
  }
}

/** Table 5 (§6.4.3 / Fig. 4c): Exit Frame Sampler skip-distance study. */
object Table5SkipDistance {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.spark("table5-skip-distance")
    val ds    = Scenarios.nuscenes(spark, JobSession.scenes(args, 24))
    Tables.skipDistance.emit(SkipDistanceExperiment.run(ds))
    spark.stop()
  }
}
