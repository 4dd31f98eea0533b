package repro.video

import repro.geom._
import repro.world.{FrameRow, GtStateRow}

/** A 2D object detection of `frame`: the camera pose and intrinsics are
  * the frame's, read through it, not copied. `zc`, `gtX`, `gtY` and `oid`
  * are latent ground truth carried for the depth simulator and the
  * accuracy metrics — Spatialyze operators only consume the bbox, the
  * type, and the frame's camera metadata.
  */
final case class DetRow(frame: FrameRow, did: Long, oid: Long, otype: String,
                        x1: Double, y1: Double, x2: Double, y2: Double,
                        zc: Double, gtX: Double, gtY: Double) {
  def sceneId: Long          = frame.sceneId
  def frameIdx: Int          = frame.frameIdx
  def pose: CamPose          = frame.pose
  def intrinsics: Intrinsics = frame.intrinsics
  def bottomCenterX: Double  = (x1 + x2) / 2.0
}

/** Simulated object detector (stands in for YOLOv5, see DESIGN.md §2).
  *
  * Projects ground-truth objects into the camera; visible objects are
  * emitted as 2D bounding boxes whose bottom-center pixel is the object's
  * true ground-contact point (+ sub-pixel jitter), matching the §6.3
  * assumption the geometry-based estimator relies on. Misses are
  * deterministic hash draws so every plan sees identical detections.
  */
object SimDetector {

  /** (visual half-width, height) in metres per object type. */
  val Dims: Map[String, (Double, Double)] = Map(
    "car" -> (1.1, 1.55), "truck" -> (1.4, 3.0), "pedestrian" -> (0.35, 1.7),
    "bicycle" -> (0.5, 1.6), "barrier" -> (1.0, 1.0),
  )

  val MaxDetectDistance = 130.0

  /** Seed of the miss and jitter draws. */
  private val Seed = 101L

  private def detectProb(zc: Double): Double =
    if (zc < 40) 0.98 else if (zc < 80) 0.90 else 0.78

  /** Detect one ground-truth state `s` of frame `fr` (same scene and frame). */
  def detectOne(fr: FrameRow, s: GtStateRow): Option[DetRow] = {
    val it = fr.intrinsics
    CameraModel.worldToPixel(fr.pose, it, Vec3(s.x, s.y, 0.0)).flatMap { case (xp0, yp0, zc) =>
      if (zc < 2.0 || zc > MaxDetectDistance || !CameraModel.inImage(it, xp0, yp0)) None
      else if (Rng.hash01(Seed, s.sceneId, s.frameIdx.toLong, s.oid) >= detectProb(zc)) None
      else {
        val (halfW, objH) = Dims.getOrElse(s.otype, (0.8, 1.5))
        // Sub-pixel measurement noise on the bbox bottom-center.
        val jx = (Rng.hash01(Seed + 1, s.sceneId, s.frameIdx.toLong, s.oid) - 0.5)
        val jy = (Rng.hash01(Seed + 2, s.sceneId, s.frameIdx.toLong, s.oid) - 0.5)
        val xp = xp0 + jx; val yp = yp0 + jy
        val wpx = fr.fx * halfW / zc
        val hpx = fr.fy * objH / zc
        val did = Rng.hashLong(s.sceneId, s.frameIdx.toLong, s.oid)
        Some(DetRow(fr, did, s.oid, s.otype, xp - wpx, yp - hpx, xp + wpx, yp, zc, s.x, s.y))
      }
    }
  }

  /** Detect the ground-truth states `states` of frame `fr`. */
  def detectFrame(fr: FrameRow, states: Seq[GtStateRow]): Vector[DetRow] = states.flatMap(detectOne(fr, _)).toVector
}
