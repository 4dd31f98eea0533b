package repro.exp

import repro.core.{ExitFrameSampler, VideoProcessor}
import repro.sflow.Analyzer
import repro.track.{Metrics, SortTracker, TrackedRow}
import repro.video.{CostModel, Estimators, SimDetector}
import repro.world.{FrameRow, GtStateRow, RoadSegment}

/** One skip-distance bucket of the §6.4.3 study (Fig. 4c). */
final case class SkipRow(skip: Int, gaps: Long, f1: Double, runtimeRatio: Double)

/** §6.4.3: run the Exit Frame Sampler with a large skip cap over the
  * vehicle detections, then for every sampled gap compare (a) tracking
  * continuity against the no-sampler baseline (F1) and (b) the modelled
  * tracker+sampler runtime against tracking every in-between frame.
  */
object SkipDistanceExperiment {

  /** One sampled gap of one scene: its association outcome and the
    * modelled tracker+sampler runtime with and without the sampler.
    */
  private final case class SkipGap(skip: Int, tp: Long, fp: Long, fn: Long,
                                   withMs: Double, withoutMs: Double)

  /** The skip cap of the study, above the sampler's default of 13. */
  val MaxSkip = 20

  def run(ds: Dataset): Seq[SkipRow] = {
    val lanes  = ds.net.segments.filter(_.heading.isDefined).toArray
    val inters = ds.net.ofType("intersection").toArray
    val fps    = ds.fps
    val gapsByScene = VideoProcessor.byScene(ds.frames, ds.gtStates) { (sid, frames, states) =>
      sid -> sceneGaps(frames, states, lanes, inters, fps)
    }.collect().toMap

    gapsByScene.values.flatten.groupBy(_.skip).toSeq.sortBy(_._1).map { case (skip, gs) =>
      val f1 = Metrics.SkipStats(skip, gs.map(_.tp).sum, gs.map(_.fp).sum, gs.map(_.fn).sum, gs.size).f1
      val withoutMs = gs.map(_.withoutMs).sum
      SkipRow(skip, gs.size, f1, if (withoutMs > 0) gs.map(_.withMs).sum / withoutMs else 1.0)
    }
  }

  /** The sampled gaps of one scene, in frame order. */
  private def sceneGaps(frames: Vector[FrameRow], states: Map[Int, Vector[GtStateRow]],
                        lanes: Array[RoadSegment], inters: Array[RoadSegment],
                        fps: Double): Seq[SkipGap] = {
    val dets3d = frames
      .flatMap(fr => SimDetector.detectFrame(fr, states.getOrElse(fr.frameIdx, Nil)))
      .filter(d => Analyzer.VehicleTypes.contains(d.otype))
      .map(Estimators.geomOne(_))
    val byFrame = dets3d.groupBy(_.frameIdx)
    val sampled = ExitFrameSampler.sampleScene(frames, byFrame, lanes, inters, fps, MaxSkip)
    val sampledSet = sampled.toSet

    def byFrameIds(rows: Seq[TrackedRow]): Map[Int, Map[Long, Long]] =
      rows.groupBy(_.frameIdx).view.mapValues(_.map(r => r.oid -> r.trackId).toMap).toMap
    val gt = byFrameIds(SortTracker.trackScene(dets3d))
    val pr = byFrameIds(SortTracker.trackScene(dets3d.filter(d => sampledSet.contains(d.frameIdx))))

    def trackCostMs(f: Int): Double = {
      val n = byFrame.get(f).fold(0.0)(_.size.toDouble)
      CostModel.TrackerFrameMs + CostModel.TrackerDetMs * n + CostModel.TrackerPairMs * n * n
    }
    Metrics.gapOutcomes(gt, pr, sampled).zip(sampled.zip(sampled.drop(1))).map {
      case ((skip, tp, fp, fn), (f0, f1)) =>
        SkipGap(skip, tp, fp, fn,
                withMs = CostModel.EfsPerFrameMs * (f1 - f0) + trackCostMs(f1),
                withoutMs = (f0 + 1 to f1).map(trackCostMs).sum)
    }
  }
}
