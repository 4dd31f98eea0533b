package repro.exp

import org.apache.spark.sql.SparkSession
import repro.baselines._
import repro.core.{PlanConfig, SpatialyzeWorld, VideoProcessor}
import repro.sflow.Queries
import repro.video.CostModel

/** §7.1 system comparisons (Fig. 5a and surrounding text). */
object SystemsExperiment {

  final case class EvaRow(query: String, evaS: Double, spatialyzeS: Double) {
    def speedup: Double = evaS / spatialyzeS
  }

  /** EVA comparison (Q5–Q8 run in series so EVA's materialized-UDF cache
    * is warm, §7.1.1). Spatialyze runs each query end-to-end with all
    * optimizations.
    */
  def eva(spark: SparkSession, ds: Dataset): Seq[EvaRow] = {
    val queries = Seq(Queries.q5, Queries.q6, Queries.q7, Queries.q8)
    EvaSim.run(ds.frames, ds.gtStates, ds.net, queries).zip(queries).map { case (evaRun, q) =>
      val res = new SpatialyzeWorld(spark, ds.fps)
        .addGeogConstructs(ds.net).addVideo(ds.frames, ds.gtStates).filter(q.pred)
        .observe(PlanConfig.all, q.name)
      EvaRow(q.name, evaRun.modeledMs / 1000.0, res.workflowMs / 1000.0)
    }
  }

  /** VIVA comparison on Q9 over both datasets (§7.1.2). */
  def viva(spark: SparkSession, jackson: Dataset, nuscenes: Dataset): Seq[VivaRun] =
    Seq(jackson, nuscenes).map { ds =>
      VivaSim.compare(spark, if (ds.params.flavour == "jackson") "jackson" else "nuscenes",
                      ds.frames, ds.gtStates, ds.net, Queries.q9, ds.fps)
    }

  /** nuScenes devkit comparison (§7.1.3): Movable-Objects Query Engine
    * only, over the same processed objects.
    */
  def devkit(spark: SparkSession, ds: Dataset): Seq[DevkitRun] = {
    val queries = Seq(Queries.q1, Queries.q2, Queries.q3, Queries.q4)
    // Both engines query the same processed Movable Objects (SB plan).
    val proc = VideoProcessor.run(spark, ds.frames, ds.gtStates, ds.net,
                                  Queries.q2, PlanConfig.baseline, ds.fps)
    queries.map(q => DevkitSim.compare(q, proc.objs, ds.roadCountsByType))
  }

  final case class OtifRow(otifFps: Double, otifTrainMin: Double,
                           spatialyzeFpsMin: Double, spatialyzeFpsMax: Double)

  /** OTIF comparison (§7.1.4): tracking throughput; Spatialyze's range is
    * its S6 video-processor FPS across Q1–Q4.
    */
  def otif(spark: SparkSession, ds: Dataset): OtifRow = {
    val o = OtifSim.run(ds.frames, ds.gtStates)
    val plans = Seq(Queries.q1, Queries.q2, Queries.q3, Queries.q4).map(_ -> PlanConfig.all)
    val fpsPerQuery = VideoProcessor.runAll(spark, ds.frames, ds.gtStates, ds.net, plans, ds.fps)
      .map(r => CostModel.fps(r.stats))
    OtifRow(o.fps, o.trainMs / 60000.0, fpsPerQuery.min, fpsPerQuery.max)
  }

  /** SkyQuery comparison (§7.1.5) on the aerial Q10. */
  def sky(spark: SparkSession, ds: Dataset): SkyRun =
    SkyQuerySim.compare(spark, ds.frames, ds.gtStates, ds.net, Queries.q10Aerial, ds.fps)
}
