package repro.track

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.core.{PlanConfig, VideoProcessor}
import repro.sflow.Queries
import repro.video.Det3dRow
import repro.world.{RoadNetwork, WorldGen, WorldParams}

class SortTrackerSpec extends SparkSpec {

  private def det(frame: Int, oid: Long, x1: Double, y1: Double, w: Double = 40, h: Double = 30): Det3dRow =
    Det3dRow(0L, frame, did = frame * 1000L + oid, oid = oid, otype = "car",
             x1 = x1, y1 = y1, x2 = x1 + w, y2 = y1 + h, estX = 0, estY = 0, method = "geom")

  private val tracker = SortTracker

  test("a single slowly-moving object stays on one track") {
    val dets = (0 until 50).map(f => det(f, 1, 100 + f * 3.0, 200))
    val out  = tracker.trackScene(dets)
    assert(out.size === 50)
    assert(out.map(_.trackId).distinct.size === 1)
  }

  test("two well-separated objects get two stable tracks") {
    val dets = (0 until 40).flatMap(f => Seq(det(f, 1, 100 + f * 2.0, 200), det(f, 2, 900 - f * 2.0, 600)))
    val out  = tracker.trackScene(dets)
    assert(out.map(_.trackId).distinct.size === 2)
    val byOid = out.groupBy(_.oid)
    byOid.values.foreach(rows => assert(rows.map(_.trackId).distinct.size === 1))
  }

  test("track ids never mix two distant simultaneous objects") {
    val dets = (0 until 30).flatMap(f => Seq(det(f, 1, 100, 100), det(f, 2, 1200, 700)))
    val out = tracker.trackScene(dets)
    val t1 = out.filter(_.oid == 1).map(_.trackId).distinct
    val t2 = out.filter(_.oid == 2).map(_.trackId).distinct
    assert(t1.size === 1 && t2.size === 1 && t1 != t2)
  }

  test("a long disappearance beyond maxAge starts a new track") {
    val dets = (0 until 10).map(f => det(f, 1, 100, 200)) ++
      (60 until 70).map(f => det(f, 1, 100, 200))
    val out = tracker.trackScene(dets)
    assert(out.map(_.trackId).distinct.size === 2, "gap of 50 frames must break the track")
  }

  test("a short gap within maxAge keeps the track alive (velocity prediction)") {
    val dets = (0 until 10).map(f => det(f, 1, 100 + f * 2.0, 200)) ++
      (14 until 24).map(f => det(f, 1, 100 + f * 2.0, 200))
    val out = tracker.trackScene(dets)
    assert(out.map(_.trackId).distinct.size === 1, "4-frame gap should be bridged")
  }

  test("velocity prediction bridges EFS-style skips of 13 frames") {
    val frames = Seq(0, 3, 7, 12, 25, 38, 40, 45)
    val dets   = frames.map(f => det(f, 1, 100 + f * 4.0, 200))
    val out    = tracker.trackScene(dets)
    assert(out.map(_.trackId).distinct.size === 1, s"tracks: ${out.map(_.trackId).distinct}")
  }

  test("crossing objects maintain identity via motion prediction") {
    // Two objects pass near each other with distinct vertical positions.
    val dets = (0 until 40).flatMap { f =>
      Seq(det(f, 1, 100 + f * 10.0, 150), det(f, 2, 500 - f * 10.0, 450))
    }
    val out = tracker.trackScene(dets)
    out.groupBy(_.oid).values.foreach { rows =>
      assert(rows.map(_.trackId).distinct.size === 1)
    }
  }

  test("output preserves detection identity and count") {
    val dets = (0 until 20).flatMap(f => Seq(det(f, 1, 100, 100), det(f, 2, 600, 300)))
    val out  = tracker.trackScene(dets)
    assert(out.size === dets.size)
    assert(out.map(_.did).toSet === dets.map(_.did).toSet)
  }

  test("tracking is deterministic") {
    val dets = (0 until 30).flatMap(f => Seq(det(f, 1, 100 + f * 3.0, 100), det(f, 2, 140 + f * 3.0, 120)))
    assert(tracker.trackScene(dets) === tracker.trackScene(dets))
  }

  test("empty input yields empty output") {
    assert(tracker.trackScene(Seq.empty).isEmpty)
  }

  /** All detections of a 2-scene world, located by the geometry estimator
    * and tracked per scene in Spark by the video processor.
    */
  private lazy val worldTracks: Vector[TrackedRow] = {
    val p   = WorldParams.nuscenes(nScenes = 2)
    val cfg = PlanConfig(rvp = false, otp = false, geom3d = true, efs = false)
    VideoProcessor.run(spark, WorldGen.frames(spark, p), WorldGen.gtStates(spark, p),
                       RoadNetwork.grid(p.grid), Queries.q2, cfg, p.fps)
      .tracks.get
  }

  test("Spark-side tracking partitions by scene") {
    // Track ids are per-scene counters: every scene numbers its tracks 1..n.
    val byScene = worldTracks.groupBy(_.sceneId)
    assert(byScene.keySet === Set(0L, 1L))
    byScene.values.foreach { rows =>
      val ids = rows.map(_.trackId).distinct.sorted
      assert(ids.toSeq === (1L to ids.length.toLong))
    }
  }

  test("end-to-end: tracks over the synthetic world mostly follow ground-truth objects") {
    val out = worldTracks
    assert(out.nonEmpty)
    // Purity: each track should be dominated by a single ground-truth oid.
    val purity = out.groupBy(r => (r.sceneId, r.trackId)).values.map { rows =>
      rows.groupBy(_.oid).values.map(_.size).max.toDouble / rows.size
    }
    val meanPurity = purity.sum / purity.size
    info(f"mean track purity $meanPurity%.3f over ${purity.size} tracks")
    // Same-type objects crossing in image space do switch ids in IoU
    // trackers; ~0.9 purity is SORT-realistic.
    assert(meanPurity > 0.85, s"tracker mixes objects: purity $meanPurity")
  }
}
