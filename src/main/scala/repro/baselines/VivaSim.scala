package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.core.{PlanConfig, VideoProcessor}
import repro.sflow.Query
import repro.video.CostModel
import repro.world.RoadNetwork

/** One VIVA-vs-Spatialyze comparison on one dataset. */
final case class VivaRun(dataset: String, vivaMs: Double, spatialyzeMs: Double) {
  def speedup: Double = vivaMs / spatialyzeMs
}

/** VIVA stand-in (§7.1.2): a video analytics system optimizing through
  * declarative model relationships but with no geospatial pruning — it
  * decodes, detects (on 360x240 inputs) and DeepSORT-tracks every object
  * of every frame, paying a substantial plan-creation overhead up front.
  * On a fixed camera (jackson) the intersection is a fixed image region,
  * so VIVA needs no depth model; on a moving camera (nuScenes) it must
  * estimate 3D per frame.
  *
  * Spatialyze is run with the same ML-function prices (matching the
  * paper's setup: resized input, DeepSORT) plus its spatial optimizations.
  */
object VivaSim {

  def compare(spark: SparkSession, dataset: String,
              frames: org.apache.spark.sql.DataFrame,
              gtStates: org.apache.spark.sql.DataFrame,
              net: RoadNetwork, query: Query, fps: Double): VivaRun = {
    val fixedCamera = dataset == "jackson"

    // VIVA: unoptimized plan, every object tracked, depth if camera moves.
    // Spatialyze: same ML prices + RVP/OTP/GE (EFS is inapplicable for
    // car+pedestrian workflows, per the §6.4 rule).
    val Seq(vivaStats, spatStats) = VideoProcessor.runAll(spark, frames, gtStates, net,
      Seq(query -> PlanConfig.baseline, query -> PlanConfig.all), fps).map(_.stats)
    val vivaMs = CostModel.videoMs(vivaStats,
      detect = CostModel.YoloLowResMs,
      depth = if (fixedCamera) 0.0 else CostModel.MonodepthMs,
      trackFrame = CostModel.DeepSortFrameMs, trackDet = CostModel.DeepSortDetMs,
      trackPair = 0.0) + CostModel.VivaPlanOverheadMs

    val spatMs = CostModel.videoMs(spatStats,
      detect = CostModel.YoloLowResMs,
      trackFrame = CostModel.DeepSortFrameMs, trackDet = CostModel.DeepSortDetMs,
      trackPair = 0.0)

    VivaRun(dataset, vivaMs, spatMs)
  }
}
