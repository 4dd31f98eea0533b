package repro.track

/** Tracking-accuracy metrics (paper §7.2.2 uses HOTA's Association
  * Accuracy, AssA).
  *
  * Detections are identity-matched across runs by `did` (both runs see
  * byte-identical detections for the frames they both visit, so the
  * spatial matching step of full HOTA is exact here), which isolates
  * exactly what the ablation studies: association damage from dropped
  * frames.
  */
object Metrics {

  /** HOTA Association Accuracy of `pred` tracks against `gt` tracks.
    *
    * A detection is matched by (sceneId, did). For every matched
    * detection c with gt track g and predicted track p:
    * A(c) = |TPA| / (|TPA| + |FNA| + |FPA|) where TPA = matched detections
    * with the same (g, p), FNA = remaining detections of g, FPA = remaining
    * detections of p. AssA = mean of A(c) over matched detections, and 0
    * when none matches.
    *
    * The caller restricts `gt` to the evaluation universe (e.g. excluding
    * RVP-pruned frames, as §7.2.2 does).
    */
  def assA(gt: Seq[TrackedRow], pred: Seq[TrackedRow]): Double = {
    def trackSizes(rows: Seq[TrackedRow]) = rows.groupMapReduce(r => (r.sceneId, r.trackId))(_ => 1L)(_ + _)
    val gtN      = trackSizes(gt)
    val prN      = trackSizes(pred)
    val prTracks = pred.groupMap(r => (r.sceneId, r.did))(_.trackId)
    // TPA of each (scene, gt track, predicted track); all its detections share A(c).
    val tpa = gt.flatMap(r => prTracks.getOrElse((r.sceneId, r.did), Nil).map((r.sceneId, r.trackId, _)))
      .groupMapReduce(identity)(_ => 1L)(_ + _)
    val matched = tpa.values.sum
    if (matched == 0) 0.0
    else tpa.map { case ((s, g, p), n) => n * (n.toDouble / (gtN((s, g)) + prN((s, p)) - n)) }.sum / matched
  }

  /** Precision/recall-style association F1 across a frame gap (§6.4.3's
    * skip-distance study): for ground-truth objects detected at both ends
    * of a sampled gap, a prediction is a TP when the predicted tracker
    * keeps them on one track exactly when the baseline tracker does.
    */
  final case class SkipStats(skip: Int, tp: Long, fp: Long, fn: Long, gaps: Long) {
    def f1: Double = if (2 * tp + fp + fn == 0) 1.0 else 2.0 * tp / (2.0 * tp + fp + fn)
  }

  /** Driver-side gap analysis for one scene.
    *
    * @param gtByFrame   baseline (no-sampler) tracking: frame -> (oid -> trackId)
    * @param prByFrame   sampled-run tracking: frame -> (oid -> trackId)
    * @param sampledFrames frames the sampler kept, ascending
    */
  def gapOutcomes(gtByFrame: Map[Int, Map[Long, Long]],
                  prByFrame: Map[Int, Map[Long, Long]],
                  sampledFrames: Seq[Int]): Seq[(Int, Long, Long, Long)] = {
    sampledFrames.sorted.sliding(2).collect { case Seq(f0, f1) if f1 > f0 =>
      val skip = f1 - f0 - 1
      val gt0  = gtByFrame.getOrElse(f0, Map.empty); val gt1 = gtByFrame.getOrElse(f1, Map.empty)
      val pr0  = prByFrame.getOrElse(f0, Map.empty); val pr1 = prByFrame.getOrElse(f1, Map.empty)
      var (tp, fp, fn) = (0L, 0L, 0L)
      (gt0.keySet ++ gt1.keySet).foreach { oid =>
        val gtCont = gt0.get(oid).exists(t => gt1.get(oid).contains(t))
        val prCont = pr0.get(oid).exists(t => pr1.get(oid).contains(t))
        if (gtCont && prCont) tp += 1
        else if (!gtCont && prCont) fp += 1
        else if (gtCont && !prCont) fn += 1
      }
      (skip, tp, fp, fn)
    }.toSeq
  }
}
