package repro.video

import repro.geom._

/** A detection with an estimated 3D (ground-plane) location: the fields
  * the tracker, the Exit Frame Sampler and the scene pass read. The camera
  * and the latent ground truth stay with the `DetRow` it was located from.
  * `method` records which estimator produced it: "ml" (Monodepth2
  * stand-in), "geom" (§6.3 ray–ground intersection) or "geom_fallback"
  * (geometry failed — ray above horizon — and the ML path was used,
  * §6.3.3).
  */
final case class Det3dRow(sceneId: Long, frameIdx: Int, did: Long, oid: Long, otype: String,
                          x1: Double, y1: Double, x2: Double, y2: Double,
                          estX: Double, estY: Double, method: String)

/** 3D location estimators (paper §5.2.2 op (3) and §6.3). */
object Estimators {

  /** Relative depth error of the simulated monocular-depth model. */
  val MlDepthNoise = 0.05

  /** Seed of the depth-noise draws. */
  private val Seed = 211L

  private def withEst(d: DetRow, estX: Double, estY: Double, method: String): Det3dRow =
    Det3dRow(d.sceneId, d.frameIdx, d.did, d.oid, d.otype, d.x1, d.y1, d.x2, d.y2, estX, estY, method)

  /** Monodepth2 stand-in: true depth perturbed by deterministic noise,
    * placed along the pixel ray through the bbox bottom-center.
    */
  def mlOne(d: DetRow): Det3dRow = {
    val noise = 1.0 + (Rng.hash01(Seed, d.sceneId, d.frameIdx.toLong, d.did) * 2 - 1) * MlDepthNoise
    val p     = CameraModel.pixelAtDepth(d.pose, d.intrinsics, d.bottomCenterX, d.y2, d.zc * noise)
    withEst(d, p.x, p.y, "ml")
  }

  /** Geometry-based estimator (§6.3.2): intersect the ray through the bbox
    * bottom-center with the ground plane z=0; fall back to the ML path if
    * the solution is behind the camera / above the horizon (§6.3.3).
    */
  def geomOne(d: DetRow): Det3dRow =
    CameraModel.pixelToGround(d.pose, d.intrinsics, d.bottomCenterX, d.y2) match {
      case Some(p) => withEst(d, p.x, p.y, "geom")
      case None    => mlOne(d).copy(method = "geom_fallback")
    }
}
