package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.video.{CostModel, SimDetector}

/** OTIF tracking throughput on a dataset. */
final case class OtifRun(fps: Double, trainMs: Double, modeledMs: Double, frames: Long)

/** OTIF stand-in (§7.1.4): tracker pre-processing with a cheap
  * segmentation-proxy model deciding which frames need the detector, and
  * recurrent reduced-rate tracking (every 2nd frame). Requires a long
  * offline training phase (61m37s in the paper) that Spatialyze does not.
  *
  * Runtime model: proxy on every frame; detector only on frames the proxy
  * flags (any visible object — the proxy is assumed perfect, which is
  * generous to OTIF); tracking at half rate over flagged frames.
  */
object OtifSim {

  val ProxyMs      = 8.0
  val TrackingRate = 2 // track every 2nd flagged frame

  def run(spark: SparkSession, frames: DataFrame, gtStates: DataFrame): OtifRun = {
    val nFrames = frames.count()
    val dets    = SimDetector.detect(spark, frames, gtStates).persist()

    val framesWithDets = dets.select("sceneId", "frameIdx").distinct().count()
    val detsTotal      = dets.count()
    dets.unpersist(blocking = false)

    val detectorMs = CostModel.YoloMs * framesWithDets
    val proxyMs    = ProxyMs * nFrames
    val decodeMs   = CostModel.DecodeMs * nFrames
    // Reduced-rate tracking: half the flagged frames, all their detections.
    val trackMs = (CostModel.TrackerFrameMs * framesWithDets +
      CostModel.TrackerDetMs * detsTotal +
      CostModel.TrackerPairMs * detsTotal * 6) / TrackingRate

    val totalMs = decodeMs + proxyMs + detectorMs + trackMs
    OtifRun(fps = nFrames / (totalMs / 1000.0), trainMs = CostModel.OtifTrainMs,
            modeledMs = totalMs, frames = nFrames)
  }
}
