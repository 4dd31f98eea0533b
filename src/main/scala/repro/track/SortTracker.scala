package repro.track

import repro.video.Det3dRow

/** One tracked detection: a Movable Object sample (paper §4.1.3). `oid`
  * is latent ground truth, carried only for accuracy metrics.
  */
final case class TrackedRow(sceneId: Long, frameIdx: Int, trackId: Long,
                            did: Long, oid: Long, otype: String,
                            estX: Double, estY: Double)

/** SORT-family tracking-by-detection (stands in for StrongSORT / DeepSORT
  * / SORT, §5.2.2 op (4)): per frame, associate detections to live tracks
  * by IoU of the velocity-predicted bounding box using the Hungarian
  * method, spawn tracks for unmatched detections, and retire tracks not
  * seen for `MaxAgeFrames`.
  *
  * The tracker is the stateful streaming operator of the paper; here each
  * scene's detection stream is processed sequentially inside one Spark
  * task (scenes run in parallel across the cluster).
  */
object SortTracker {

  /** Least IoU with a track's predicted bbox for a detection to join it. */
  val IouGate      = 0.05
  val MaxAgeFrames = 30

  private final case class Track(id: Long, otype: String, var lastFrame: Int,
                                 var x1: Double, var y1: Double, var x2: Double, var y2: Double,
                                 var vx: Double, var vy: Double)

  private def iou(ax1: Double, ay1: Double, ax2: Double, ay2: Double,
                  bx1: Double, by1: Double, bx2: Double, by2: Double): Double = {
    val ix = math.max(0.0, math.min(ax2, bx2) - math.max(ax1, bx1))
    val iy = math.max(0.0, math.min(ay2, by2) - math.max(ay1, by1))
    val inter = ix * iy
    val union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    if (union <= 0) 0.0 else inter / union
  }

  /** Track one scene's detections (must all share sceneId). Detections
    * are processed in frame order; only frames present in the input are
    * visited (RVP / EFS upstream may have dropped frames).
    */
  def trackScene(dets: Seq[Det3dRow]): Vector[TrackedRow] = {
    val byFrame = dets.groupBy(_.frameIdx).toVector.sortBy(_._1)
    var nextId  = 1L
    var tracks  = Vector.empty[Track]
    val out     = Vector.newBuilder[TrackedRow]

    byFrame.foreach { case (f, frameDets0) =>
      val frameDets = frameDets0.sortBy(_.did)
      // Retire tracks unseen for longer than MaxAgeFrames BEFORE association.
      tracks = tracks.filter(t => f - t.lastFrame <= MaxAgeFrames)
      // Predict each live track's bbox at frame f (constant pixel velocity).
      val preds = tracks.map { t =>
        val dt = (f - t.lastFrame).toDouble
        (t, t.x1 + t.vx * dt, t.y1 + t.vy * dt, t.x2 + t.vx * dt, t.y2 + t.vy * dt)
      }
      val cost = Array.tabulate(frameDets.size, preds.size) { (i, j) =>
        val d = frameDets(i)
        val (t, px1, py1, px2, py2) = preds(j)
        val v = iou(d.x1, d.y1, d.x2, d.y2, px1, py1, px2, py2)
        // Class-aware association (the appearance-feature proxy: a
        // StrongSORT-style tracker almost never switches classes).
        if (t.otype != d.otype || v < IouGate) Hungarian.Forbidden else 1.0 - v
      }
      val assign = Hungarian.solve(cost)
      frameDets.zipWithIndex.foreach { case (d, i) =>
        val j = assign(i)
        val track =
          if (j >= 0) {
            val t  = preds(j)._1
            val dt = math.max(1.0, (f - t.lastFrame).toDouble)
            t.vx = (d.x1 - t.x1) / dt
            t.vy = (d.y1 - t.y1) / dt
            t.x1 = d.x1; t.y1 = d.y1; t.x2 = d.x2; t.y2 = d.y2
            t.lastFrame = f
            t
          } else {
            val t = Track(nextId, d.otype, f, d.x1, d.y1, d.x2, d.y2, 0.0, 0.0)
            nextId += 1
            tracks :+= t
            t
          }
        out += TrackedRow(d.sceneId, f, track.id, d.did, d.oid, d.otype, d.estX, d.estY)
      }
      tracks = tracks.filter(t => f - t.lastFrame <= MaxAgeFrames)
    }
    out.result()
  }
}
