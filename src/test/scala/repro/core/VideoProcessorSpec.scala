package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.sflow.Queries
import repro.video.CostModel
import repro.world.{RoadNetwork, WorldGen, WorldParams}

class VideoProcessorSpec extends SparkSpec {

  private val p   = WorldParams.nuscenes(nScenes = 3)
  private val net = RoadNetwork.grid(p.grid)
  private lazy val frames = WorldGen.frames(spark, p).persist()
  private lazy val gt     = WorldGen.gtStates(spark, p).persist()

  private def run(q: repro.sflow.Query, cfg: PlanConfig) =
    VideoProcessor.run(spark, frames, gt, net, q, cfg, p.fps)

  test("baseline plan applies no optimizations and tracks every frame with detections") {
    val r = run(Queries.q2, PlanConfig.baseline)
    assert(!r.stats.rvpApplied && !r.stats.otpApplied && !r.stats.geomApplied && !r.stats.efsApplied)
    assert(r.stats.framesAfterRvp === r.stats.framesTotal)
    assert(r.stats.detsAfterOtp === r.stats.detections)
    assert(r.stats.trackerRan && r.tracks.isDefined)
    assert(r.stats.depthFrames > 0, "baseline uses the ML depth path")
    assert(r.stats.geomDets === 0)
  }

  test("the full plan applies every applicable optimization for a vehicle query") {
    val r = run(Queries.q2, PlanConfig.all)
    assert(r.stats.rvpApplied && r.stats.otpApplied && r.stats.geomApplied && r.stats.efsApplied)
    assert(r.stats.framesAfterRvp < r.stats.framesTotal, "RVP pruned something")
    assert(r.stats.detsAfterOtp < r.stats.detections, "OTP pruned something")
    assert(r.stats.geomDets > 0)
    assert(r.stats.trackerFrames < r.stats.framesAfterRvp, "EFS reduced tracker frames")
  }

  test("EFS is not applied for the pedestrian query Q1 even when enabled (§6.4)") {
    val r = run(Queries.q1, PlanConfig.all)
    assert(!r.stats.efsApplied)
    assert(r.stats.rvpApplied && r.stats.otpApplied && r.stats.geomApplied)
  }

  test("detection-only queries (Q5-Q8) skip the tracker entirely (§5.2.2 operator pruning)") {
    Seq(Queries.q5, Queries.q7).foreach { q =>
      val r = run(q, PlanConfig.all)
      assert(!r.stats.trackerRan && r.tracks.isEmpty, s"${q.name} must not track")
      assert(r.stats.trackerFrames === 0L)
      assert(r.objs.columns.toSeq ===
             Seq("sceneId", "frameIdx", "oid", "otype", "x", "y", "heading", "turnleft", "stopped", "nFrame"))
    }
  }

  test("objs oids are track ids when tracking ran, detection ids otherwise") {
    val tracked  = run(Queries.q2, PlanConfig.baseline)
    val detOnly  = run(Queries.q6, PlanConfig.baseline)
    // Track ids are small per-scene counters; det ids are large hashes.
    val maxTrackOid = tracked.objs.agg(org.apache.spark.sql.functions.max("oid")).collect()(0).getLong(0)
    assert(maxTrackOid < 10000L)
    val detOids = detOnly.objs.select("oid").limit(10).collect().map(_.getLong(0))
    assert(detOids.forall(o => o < 0 || o >= 10000L))
  }

  test("each optimization alone never increases modeled runtime (S1-S4 vs SB)") {
    val sb = CostModel.videoMs(run(Queries.q2, PlanConfig.baseline).stats)
    val configs = Seq(
      PlanConfig(rvp = true, otp = false, geom3d = false, efs = false),
      PlanConfig(rvp = false, otp = true, geom3d = false, efs = false),
      PlanConfig(rvp = false, otp = false, geom3d = true, efs = false),
      PlanConfig(rvp = false, otp = false, geom3d = false, efs = true))
    configs.foreach { cfg =>
      val ms = CostModel.videoMs(run(Queries.q2, cfg).stats)
      assert(ms <= sb * 1.01, s"config $cfg increased runtime: $ms vs $sb")
    }
  }

  test("the full plan achieves a healthy speedup on Q2 (paper band 2.5-5.3x)") {
    val sb = CostModel.videoMs(run(Queries.q2, PlanConfig.baseline).stats)
    val s6 = CostModel.videoMs(run(Queries.q2, PlanConfig.all).stats)
    val speedup = sb / s6
    info(f"Q2 S6 speedup $speedup%.2f x")
    assert(speedup > 2.0, s"speedup $speedup too small")
    assert(speedup < 8.0, s"speedup $speedup implausibly large")
  }

  test("keptFrames matches the RVP output") {
    val r = run(Queries.q2, PlanConfig.all)
    assert(r.keptFrames.count() === r.stats.framesAfterRvp)
    assert(r.keptFrames.columns === Array("sceneId", "frameIdx"))
  }

  test("pipeline stats are internally consistent") {
    val r = run(Queries.q2, PlanConfig.all).stats
    assert(r.framesAfterRvp <= r.framesTotal)
    assert(r.detsAfterOtp <= r.detections)
    assert(r.trackerDets <= r.detsAfterOtp)
    assert(r.trackerFrames <= r.framesAfterRvp)
    assert(r.geomDets <= r.detsAfterOtp)
  }

  test("a run costs exactly 1 Spark job (SB and S6 on Q1 and Q2)") {
    for (q <- Seq(Queries.q1, Queries.q2); (name, cfg) <- Seq("SB" -> PlanConfig.baseline, "S6" -> PlanConfig.all)) {
      val jobs = sparkJobs(s"vp-jobs-${q.name}-$name")(run(q, cfg)).jobs
      assert(jobs === 1, s"${q.name} $name ran $jobs Spark jobs")
    }
  }

  test("VideoProcessor.run caches nothing") {
    frames.count(); gt.count()
    for (q <- Seq(Queries.q1, Queries.q5); (name, cfg) <- Seq("SB" -> PlanConfig.baseline, "S6" -> PlanConfig.all)) {
      val added = persistedBy(run(q, cfg))
      assert(added.isEmpty, s"${q.name} $name persisted RDDs $added")
    }
  }

  test("plans are deterministic end to end") {
    val a = run(Queries.q3, PlanConfig.all)
    val b = run(Queries.q3, PlanConfig.all)
    assert(a.stats === b.stats)
    assert(a.objs.orderBy("sceneId", "frameIdx", "oid").collect().map(_.toString) ===
           b.objs.orderBy("sceneId", "frameIdx", "oid").collect().map(_.toString))
  }
}
