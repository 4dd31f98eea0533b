package repro.video

import org.scalatest.funsuite.AnyFunSuite

class CostModelSpec extends AnyFunSuite {

  /** A 240-frame baseline run shaped like the paper's averages
    * (~6 detections/frame, tracker on every frame).
    */
  private val baseline = RunStats(
    framesTotal = 240, framesAfterRvp = 240, detections = 1440, detsAfterOtp = 1440,
    depthFrames = 240, geomDets = 0,
    trackerFrames = 240, trackerDets = 1440, trackerPairOps = 1440 * 6,
    trackerRan = true, rvpApplied = false, otpApplied = false,
    geomApplied = false, efsApplied = false)

  test("baseline video processing is ~30s per 20s video (paper: 34s workflow, 89.9% video proc)") {
    val s = CostModel.videoMs(baseline) / 1000.0
    info(f"baseline video processing $s%.1f s per video")
    assert(s > 24 && s < 38, s"baseline $s s out of the calibrated band")
  }

  test("baseline throughput is ~7 fps (paper: 34s for a 240-frame video)") {
    val fps = CostModel.fps(baseline)
    assert(fps > 6 && fps < 10, s"baseline fps $fps")
  }

  test("depth estimation is ~48% of baseline video processing (paper §6.3)") {
    val total = CostModel.videoMs(baseline)
    val share = CostModel.MonodepthMs * baseline.depthFrames / total
    info(f"depth share ${share * 100}%.1f%%")
    assert(share > 0.40 && share < 0.56)
  }

  test("tracking is ~26% of baseline video processing (paper §6.2.2)") {
    val total = CostModel.videoMs(baseline)
    val track = CostModel.TrackerFrameMs * 240 + CostModel.TrackerDetMs * 1440 +
      CostModel.TrackerPairMs * 1440 * 6
    val share = track / total
    info(f"tracker share ${share * 100}%.1f%%")
    assert(share > 0.18 && share < 0.34)
  }

  test("geometry estimation makes the 3D share insignificant (48% -> <1%, §7.2.1)") {
    val geom  = baseline.copy(geomApplied = true, geomDets = 1440, depthFrames = 0)
    val total = CostModel.videoMs(geom)
    val share = CostModel.GeomPerDetMs * geom.geomDets / total
    info(f"geometry share ${share * 100}%.2f%%")
    assert(share < 0.01)
  }

  test("geometry estimator is ~192x cheaper than depth per frame (§6.3.3)") {
    val perFrameGeom = CostModel.GeomPerDetMs * 6
    val ratio        = CostModel.MonodepthMs / perFrameGeom
    info(f"geometry speedup $ratio%.0f x")
    assert(ratio > 120 && ratio < 280)
  }

  test("RVP overhead is ~0.1% of video processing (§6.1.3)") {
    val rvp = baseline.copy(rvpApplied = true)
    val share = CostModel.RvpPerFrameMs * 240 / CostModel.videoMs(rvp)
    assert(share < 0.002, s"RVP overhead share $share")
  }

  test("OTP overhead is ~0.06% of video processing (§6.2.2)") {
    val otp = baseline.copy(otpApplied = true)
    val share = CostModel.OtpPerDetMs * 1440 / CostModel.videoMs(otp)
    assert(share < 0.002, s"OTP overhead share $share")
  }

  test("RVP with zero pruned frames costs almost nothing extra (worst case, §6.1.3)") {
    val withRvp = CostModel.videoMs(baseline.copy(rvpApplied = true))
    val without = CostModel.videoMs(baseline)
    assert((withRvp - without) / without < 0.002)
  }

  test("pruning 21.5% of frames reduces runtime meaningfully") {
    val pruned = baseline.copy(rvpApplied = true,
      framesAfterRvp = (240 * 0.785).toLong, detections = (1440 * 0.785).toLong,
      detsAfterOtp = (1440 * 0.785).toLong, depthFrames = (240 * 0.785).toLong,
      trackerFrames = (240 * 0.785).toLong, trackerDets = (1440 * 0.785).toLong,
      trackerPairOps = (1440 * 6 * 0.785).toLong)
    val reduction = 1 - CostModel.videoMs(pruned) / CostModel.videoMs(baseline)
    info(f"runtime reduction ${reduction * 100}%.1f%%")
    assert(reduction > 0.12 && reduction < 0.25)
  }

  test("the all-optimizations plan lands in the paper's 2.5-5.3x speedup band") {
    // RVP prunes 21.5%, OTP keeps 63.5% of dets, GE replaces depth, EFS
    // samples ~40% of frames for the tracker.
    val s6 = RunStats(
      framesTotal = 240, framesAfterRvp = 188, detections = 1128, detsAfterOtp = 716,
      depthFrames = 0, geomDets = 716,
      trackerFrames = 75, trackerDets = 290, trackerPairOps = 1100,
      trackerRan = true, rvpApplied = true, otpApplied = true,
      geomApplied = true, efsApplied = true)
    val speedup = CostModel.videoMs(baseline) / CostModel.videoMs(s6)
    info(f"modeled S6 speedup $speedup%.2f x")
    assert(speedup > 2.5 && speedup < 5.3, s"S6 speedup $speedup outside the paper band")
  }

  test("prune fraction helpers") {
    val s = baseline.copy(framesAfterRvp = 120, detsAfterOtp = 720)
    assert(s.prunedFrameFraction === 0.5)
    assert(s.prunedDetFraction === 0.5)
    assert(RunStats(0, 0, 0, 0, 0, 0, 0, 0, 0, false, false, false, false, false).prunedFrameFraction === 0.0)
  }

  test("workflowMs adds query-engine and per-video constants") {
    val s = baseline.copy(queryRowsExamined = 100000)
    assert(CostModel.workflowMs(s) > CostModel.videoMs(s))
    assert(CostModel.queryEngineMs(s) === CostModel.SqlPerRowMs * 100000)
  }

  test("videoMs cost overrides reprice operators") {
    val cheapDetector = CostModel.videoMs(baseline, detect = 1.0)
    val default       = CostModel.videoMs(baseline)
    assert(default - cheapDetector === (CostModel.YoloMs - 1.0) * 240)
  }
}
