package repro.core

import repro.geom.CameraModel
import repro.world.{FrameRow, RoadSegment}

/** Road Visibility Pruner (§6.1): drop video frames whose camera view —
  * the frustum pyramid at distance d projected onto the ground plane as a
  * convex hull (Fig. 2) — contains no Geographic Construct of a queried
  * type. Construct visibility is the proxy for object visibility:
  * `contains(road, obj) ∧ distance(cam, obj) < d` can only match on
  * frames where `road` is visible within d.
  *
  * Purely metadata-driven: consumes camera poses and road polygons only,
  * never pixels — hence its negligible overhead (0.1 % of video
  * processing, §6.1.3).
  */
object RoadVisibilityPruner {

  /** Is any construct of the target type visible from this frame's camera? */
  def frameVisible(frame: FrameRow, polys: Array[RoadSegment], dist: Double): Boolean = {
    val hull = CameraModel.viewHull(frame.pose, frame.intrinsics, dist)
    polys.exists(_.polygon.overlapsConvex(hull))
  }

  /** Keep a frame only when, for EVERY (construct polygons, distance)
    * target, some construct is visible (conjunctive `contains` semantics,
    * §6.1.2 last step).
    */
  def keep(frame: FrameRow, targets: Seq[(Array[RoadSegment], Double)]): Boolean =
    targets.forall { case (polys, dist) => frameVisible(frame, polys, dist) }
}
