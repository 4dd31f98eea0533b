package repro.video

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.core.DataFrameDetector
import repro.geom.{CameraModel, Vec3}
import repro.world.{FrameRow, GtStateRow, SceneGen, WorldGen, WorldParams}

class SimDetectorSpec extends SparkSpec {

  private val p = WorldParams.nuscenes(nScenes = 2)
  private lazy val frames = WorldGen.frames(spark, p).persist()
  private lazy val gt     = WorldGen.gtStates(spark, p).persist()
  private lazy val dets   = DataFrameDetector.detect(spark, frames, gt).persist()

  test("detector produces a sensible volume of detections") {
    val n = dets.count()
    val perFrame = n.toDouble / frames.count()
    info(s"detections=$n (${perFrame} per frame)")
    assert(perFrame > 0.5, s"too few detections per frame: $perFrame")
    assert(perFrame < 12.0, s"too many detections per frame: $perFrame")
  }

  test("detections are deterministic across invocations") {
    val a = DataFrameDetector.detect(spark, frames, gt).collect().map(_.toString).sorted
    val b = DataFrameDetector.detect(spark, frames, gt).collect().map(_.toString).sorted
    assert(a.sameElements(b))
  }

  test("detection ids are unique and stable per (scene, frame, object)") {
    import spark.implicits._
    val rows = dets.as[DetRow].collect()
    assert(rows.map(_.did).distinct.length === rows.length)
  }

  test("bboxes lie within plausible image bounds") {
    import spark.implicits._
    dets.as[DetRow].collect().foreach { d =>
      assert(d.x1 < d.x2 && d.y1 < d.y2, s"degenerate bbox $d")
      val cx = (d.x1 + d.x2) / 2
      assert(cx >= -2 && cx <= d.frame.imgW + 2, s"bbox center x $cx out of image")
      assert(d.y2 >= 0 && d.y2 <= d.frame.imgH + 2, s"bbox bottom ${d.y2} out of image")
    }
  }

  test("bbox bottom-center is the projected ground-contact pixel (sub-pixel)") {
    import spark.implicits._
    dets.as[DetRow].take(200).foreach { d =>
      val proj = CameraModel.worldToPixel(d.pose, d.intrinsics, Vec3(d.gtX, d.gtY, 0.0))
      assert(proj.isDefined)
      val (xp, yp, zc) = proj.get
      assert(math.abs(d.bottomCenterX - xp) <= 0.51, "bottom-center x jitter bound")
      assert(math.abs(d.y2 - yp) <= 0.51, "bottom y jitter bound")
      assert(math.abs(d.zc - zc) < 1e-9, "stored depth is the true depth")
    }
  }

  test("detected objects are genuinely in front of and near the camera") {
    import spark.implicits._
    dets.as[DetRow].collect().foreach { d =>
      assert(d.zc >= 2.0 && d.zc <= SimDetector.MaxDetectDistance)
    }
  }

  test("near objects are detected at a higher rate than far ones") {
    import spark.implicits._
    val byFrame = frames.as[FrameRow].collect().map(fr => (fr.sceneId, fr.frameIdx) -> fr).toMap
    val joined  = gt.as[GtStateRow].collect().map(s => (byFrame((s.sceneId, s.frameIdx)), s))
    def rate(lo: Double, hi: Double): Double = {
      val inBand = joined.filter { case (fr, s) =>
        CameraModel.worldToPixel(fr.pose, fr.intrinsics, Vec3(s.x, s.y, 0.0)) match {
          case Some((xp, yp, zc)) =>
            zc >= lo && zc < hi && xp >= 0 && xp < fr.imgW && yp >= 0 && yp < fr.imgH
          case None => false
        }
      }
      if (inBand.isEmpty) 1.0
      else inBand.count { case (fr, s) => SimDetector.detectOne(fr, s).isDefined }.toDouble / inBand.size
    }
    val near = rate(2, 40)
    val far  = rate(80, 120)
    info(s"near rate=$near far rate=$far")
    assert(near > far, s"near $near should beat far $far")
    assert(near > 0.9)
  }

  test("each detection references its frame") {
    import spark.implicits._
    val f = frames.as[FrameRow].collect()
      .map(fr => (fr.sceneId, fr.frameIdx) -> fr).toMap
    dets.as[DetRow].take(100).foreach { d =>
      assert(d.frame === f((d.sceneId, d.frameIdx)))
      assert(d.pose === d.frame.pose && d.intrinsics === d.frame.intrinsics)
    }
  }

  test("per-scene generator and detector compose deterministically") {
    val s0 = SceneGen.states(p, 0L)
    assert(s0 === SceneGen.states(p, 0L))
  }
}
