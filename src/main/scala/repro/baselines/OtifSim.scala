package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core.VideoProcessor
import repro.video.{CostModel, SimDetector}

/** OTIF tracking throughput on a dataset, with the unit counts it prices. */
final case class OtifRun(fps: Double, trainMs: Double, modeledMs: Double, frames: Long,
                         framesWithDets: Long, detections: Long)

/** OTIF stand-in (§7.1.4): tracker pre-processing with a cheap
  * segmentation-proxy model deciding which frames need the detector, and
  * recurrent reduced-rate tracking (every 2nd frame). Requires a long
  * offline training phase (61m37s in the paper) that Spatialyze does not.
  *
  * Runtime model: proxy on every frame; detector only on frames the proxy
  * flags (any visible object — the proxy is assumed perfect, which is
  * generous to OTIF); tracking at half rate over flagged frames. The
  * detections come from the scene pass, each frame's count collected in
  * one Spark job.
  */
object OtifSim {

  val TrackingRate = 2 // track every 2nd flagged frame

  def run(frames: DataFrame, gtStates: DataFrame): OtifRun = {
    val perFrame = VideoProcessor.byScene(frames, gtStates) { (_, fs, states) =>
      fs.map(fr => SimDetector.detectFrame(fr, states.getOrElse(fr.frameIdx, Nil)).size)
    }.collect().flatten
    val nFrames        = perFrame.length.toLong
    val framesWithDets = perFrame.count(_ > 0).toLong
    val detsTotal      = perFrame.map(_.toLong).sum

    val detectorMs = CostModel.YoloMs * framesWithDets
    val proxyMs    = CostModel.OtifProxyMs * nFrames
    val decodeMs   = CostModel.DecodeMs * nFrames
    // Reduced-rate tracking: half the flagged frames, all their detections.
    val trackMs = (CostModel.TrackerFrameMs * framesWithDets +
      CostModel.TrackerDetMs * detsTotal +
      CostModel.TrackerPairMs * detsTotal * 6) / TrackingRate

    val totalMs = decodeMs + proxyMs + detectorMs + trackMs
    OtifRun(fps = nFrames / (totalMs / 1000.0), trainMs = CostModel.OtifTrainMs,
            modeledMs = totalMs, frames = nFrames, framesWithDets = framesWithDets,
            detections = detsTotal)
  }
}
