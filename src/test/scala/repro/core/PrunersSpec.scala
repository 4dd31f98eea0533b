package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.geom.CameraModel
import repro.sflow.{ObjRef, Query, TypeIs}
import repro.world._

class PrunersSpec extends SparkSpec {

  private val p   = WorldParams.nuscenes(nScenes = 3)
  private val net = RoadNetwork.grid(p.grid)
  private lazy val frames = WorldGen.frames(spark, p).persist()
  private lazy val gt     = WorldGen.gtStates(spark, p).persist()
  private lazy val allFrames = {
    import spark.implicits._
    frames.as[FrameRow].collect()
  }

  /** The frames RVP keeps for the given (construct type, distance) targets. */
  private def rvpKept(targets: (String, Double)*): Array[FrameRow] = {
    val t = targets.map { case (ty, d) => (net.ofType(ty).toArray, d) }
    allFrames.filter(RoadVisibilityPruner.keep(_, t))
  }

  /** A detection-only plan that needs only `types`, run with and without OTP. */
  private def otpRun(types: Set[String], otp: Boolean = true): ProcessResult =
    VideoProcessor.run(spark, frames, gt, net, Query("otp", "types only", TypeIs(ObjRef("o"), types)),
                       PlanConfig(rvp = false, otp = otp, geom3d = false, efs = false), p.fps)

  test("RVP with no targets is the identity") {
    assert(rvpKept().length === allFrames.length)
  }

  test("RVP on intersections prunes a nontrivial fraction (paper: 21.5%)") {
    val frac = 1.0 - rvpKept(("intersection", 50.0)).length.toDouble / allFrames.length
    info(f"intersection prune fraction ${frac * 100}%.1f%% (paper 21.5%%)")
    assert(frac > 0.05 && frac < 0.50, s"intersection prune fraction $frac")
  }

  test("RVP on lanes prunes almost nothing (paper: 3.8%)") {
    val frac = 1.0 - rvpKept(("lane", 10.0)).length.toDouble / allFrames.length
    info(f"lane prune fraction ${frac * 100}%.1f%% (paper 3.8%%)")
    assert(frac < 0.15, s"lane prune fraction $frac")
  }

  test("RVP keeps exactly the frames whose view hull overlaps a target polygon") {
    val target  = net.ofType("intersection").toArray
    val keptIdx = rvpKept(("intersection", 50.0)).map(f => (f.sceneId, f.frameIdx)).toSet
    allFrames.foreach { fr =>
      val hull    = CameraModel.viewHull(fr.pose, fr.intrinsics, 50.0)
      val visible = target.exists(_.polygon.overlapsConvex(hull))
      assert(keptIdx.contains((fr.sceneId, fr.frameIdx)) === visible)
    }
  }

  test("RVP soundness: every frame with a matching detection near an intersection is kept") {
    import spark.implicits._
    val kept = rvpKept(("intersection", 50.0)).map(f => (f.sceneId, f.frameIdx)).toSet
    val dets = DataFrameDetector.detect(spark, frames, gt).as[repro.video.DetRow].collect()
    val inters = net.ofType("intersection")
    // Ground-truth-matching detections: at an intersection, within 50 m.
    val matching = dets.filter { d =>
      d.zc < 50.0 && inters.exists(_.polygon.contains(d.gtX, d.gtY))
    }
    assert(matching.nonEmpty, "need matching detections for the soundness check")
    matching.foreach { d =>
      assert(kept.contains((d.sceneId, d.frameIdx)),
             s"RVP pruned frame ${d.frameIdx} that contains an intersection object at ${(d.gtX, d.gtY)}")
    }
  }

  test("RVP conjunctive semantics: two targets prune at least as much as each alone") {
    val both  = rvpKept(("intersection", 50.0), ("bikeLane", 50.0)).length
    val inter = rvpKept(("intersection", 50.0)).length
    val bike  = rvpKept(("bikeLane", 50.0)).length
    assert(both <= math.min(inter, bike))
  }

  test("RVP with a shorter visibility distance prunes more") {
    assert(rvpKept(("intersection", 20.0)).length <= rvpKept(("intersection", 50.0)).length)
  }

  test("OTP keeps exactly the requested types") {
    val r = otpRun(Set("car", "truck"))
    assert(r.objs.select("otype").distinct().collect().map(_.getString(0)).toSet.subsetOf(Set("car", "truck")))
    assert(r.objs.count() === r.stats.detsAfterOtp)
    val frac = r.stats.prunedDetFraction
    info(f"OTP vehicle prune fraction ${frac * 100}%.1f%% (paper 36.5%%)")
    assert(frac > 0.15 && frac < 0.55)
  }

  test("OTP pedestrian pruning matches the paper's ~86% band loosely") {
    val frac = otpRun(Set("pedestrian")).stats.prunedDetFraction
    info(f"OTP pedestrian prune fraction ${frac * 100}%.1f%% (paper 86.3%%)")
    assert(frac > 0.70 && frac < 0.97)
  }

  test("OTP preserves all columns and detection identity") {
    val on  = otpRun(Set("car")).objs
    val off = otpRun(Set("car"), otp = false).objs
    assert(on.columns === off.columns)
    assert(on.select("oid").distinct().count() === on.count())
    // nFrame counts a frame's output samples, which OTP lowers by design.
    def rows(df: org.apache.spark.sql.DataFrame) = df.drop("nFrame").collect().map(_.toString).sorted.toSeq
    assert(rows(on) === rows(off.filter("otype = 'car'")), "OTP keeps the unpruned detections unchanged")
  }
}
