package repro.core

import repro.geom.{CameraModel, Heading, Vec2}
import repro.video.Det3dRow
import repro.world.{FrameRow, RoadSegment}

/** Exit Frame Sampler (§6.4): between the 3D estimator and the tracker,
  * sample only the frames where a `sampleEvent` may occur —
  * (i) a car exits its lane, (ii) a car exits the camera view, (iii) a
  * new car enters the view — predicting car motion from the lane's
  * traffic heading at the assumed regulatory speed (25 mph). Cars inside
  * an intersection cannot be predicted, so no frame is skipped there.
  *
  * The maximum skip distance is 13 frames — the accuracy/runtime knee of
  * Fig. 4(c).
  */
object ExitFrameSampler {

  /** 25 mph, the assumed common-traffic-rule speed of §6.4.2. */
  val AssumedSpeedMps = 11.18

  val DefaultMaxSkip = 13

  /** Visibility distance used for the exitsCamera event. */
  val ViewDistance = 120.0

  /** Sample one scene. `frames` is the (RVP-surviving) frame stream in
    * order; `detsByFrame` the (OTP-surviving) located detections. Returns
    * the sampled frame indices, always including the first frame.
    * Positions are in *stream* order — skips count frames the tracker
    * would otherwise process.
    */
  def sampleScene(frames: Vector[FrameRow], detsByFrame: Map[Int, Seq[Det3dRow]],
                  lanes: Array[RoadSegment], intersections: Array[RoadSegment],
                  fps: Double, maxSkip: Int = DefaultMaxSkip): Vector[Int] = {
    if (frames.isEmpty) return Vector.empty
    val n    = frames.size

    val out = Vector.newBuilder[Int]
    var i   = 0
    out += frames(0).frameIdx
    while (i < n - 1) {
      val cap  = math.min(n - 1, i + 1 + maxSkip)
      val cur  = frames(i)
      val dets = detsByFrame.getOrElse(cur.frameIdx, Seq.empty)
      var next = cap

      // (iii) newCar: the first upcoming frame with a detection that no
      // currently-visible car could have produced (further than any of
      // them could travel at the assumed speed, plus a slack radius) —
      // raw detection *counts* flicker with detector misses.
      val curPos = dets.map(d => Vec2(d.estX, d.estY))
      var j = i + 1
      var newCarAt = -1
      while (j <= cap && newCarAt < 0) {
        val f     = frames(j)
        val reach = AssumedSpeedMps * (f.frameIdx - cur.frameIdx) / fps + 8.0
        val cand  = detsByFrame.getOrElse(f.frameIdx, Seq.empty)
        if (cand.exists(d => curPos.forall(p => p.dist(Vec2(d.estX, d.estY)) > reach)))
          newCarAt = j
        j += 1
      }
      if (newCarAt >= 0) next = math.min(next, newCarAt)

      dets.foreach { d =>
        val p = Vec2(d.estX, d.estY)
        if (intersections.exists(_.polygon.contains(p))) {
          // In an intersection the car may not travel straight: no skipping.
          next = i + 1
        } else {
          lanes.find(l => l.heading.isDefined && l.polygon.contains(p)) match {
            case Some(lane) =>
              val dir = Heading.toUnit(lane.heading.get)
              // (i) exitsLane: last frame strictly before the car reaches
              // the lane-polygon boundary along the lane direction.
              lane.polygon.rayExitDistance(p, dir).foreach { exitDist =>
                val exitFrame = cur.frameIdx + exitDist / AssumedSpeedMps * fps
                var k = i + 1
                var lastBefore = i + 1
                while (k <= cap && frames(k).frameIdx < exitFrame) { lastBefore = k; k += 1 }
                if (k <= cap || frames(cap).frameIdx >= exitFrame)
                  next = math.min(next, math.max(i + 1, lastBefore))
              }
              // (ii) exitsCamera: the frame preceding the first predicted
              // position outside the camera view.
              var k = i + 1
              var exited = -1
              while (k <= cap && exited < 0) {
                val f    = frames(k)
                val pred = p + dir * (AssumedSpeedMps * (f.frameIdx - cur.frameIdx) / fps)
                if (!CameraModel.seesGroundPoint(f.pose, f.intrinsics, pred, ViewDistance))
                  exited = k
                k += 1
              }
              if (exited >= 0) next = math.min(next, math.max(i + 1, exited - 1))
            case None =>
              // Not on any lane: motion unpredictable, no skipping.
              next = i + 1
          }
        }
      }

      next = math.max(i + 1, math.min(next, cap))
      out += frames(next).frameIdx
      i = next
    }
    out.result()
  }
}
