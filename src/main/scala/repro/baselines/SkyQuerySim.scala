package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{PlanConfig, VideoProcessor}
import repro.sflow.Query
import repro.video.CostModel
import repro.world.RoadNetwork

/** SkyQuery-vs-Spatialyze throughput on the aerial workload (Q10). */
final case class SkyRun(skyQueryFps: Double, spatialyzeFps: Double, prunedFraction: Double) {
  def speedup: Double = spatialyzeFps / skyQueryFps
}

/** SkyQuery stand-in (§7.1.5): an aerial drone sensing pipeline —
  * customized YOLOv3 detection on full 1080p frames, its own per-frame
  * 3D estimator, SORT tracking — with no query-driven frame pruning.
  *
  * The Spatialyze run uses the SAME ML-function prices (the paper swaps
  * SkyQuery's models into Spatialyze's video processor) and applies only
  * the Road Visibility Pruner, which drops frames with no visible cycling
  * lane; the speedup is therefore exactly the pruned-frame fraction.
  */
object SkyQuerySim {

  private def priced(stats: repro.video.RunStats): Double =
    CostModel.videoMs(stats,
      detect = CostModel.Yolo3AerialMs,
      depth = 0.0, geomDet = 0.0, // SkyQuery's 3D estimator: flat per-frame cost below
      trackFrame = CostModel.SortFrameMs, trackDet = CostModel.SortDetMs,
      trackPair = 0.0) + CostModel.SkyEstFrameMs * stats.framesAfterRvp

  def compare(spark: SparkSession, frames: DataFrame, gtStates: DataFrame,
              net: RoadNetwork, query: Query, fps: Double): SkyRun = {
    // SkyQuery: the full pipeline on every frame. Spatialyze with
    // SkyQuery's ML functions: only RVP applies (§7.1.5).
    val Seq(skyStats, spatStats) = VideoProcessor.runAll(spark, frames, gtStates, net,
      Seq(query -> PlanConfig.baseline,
          query -> PlanConfig(rvp = true, otp = false, geom3d = false, efs = false)), fps).map(_.stats)

    val skyMs  = priced(skyStats)
    val spatMs = priced(spatStats)
    SkyRun(skyQueryFps = skyStats.framesTotal / (skyMs / 1000.0),
           spatialyzeFps = spatStats.framesTotal / (spatMs / 1000.0),
           prunedFraction = spatStats.prunedFrameFraction)
  }
}
