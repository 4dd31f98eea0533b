package repro.video

/** Execution statistics of one video-processing plan run. Unit counts are
  * exact (measured from the DataFrames); runtimes are derived from them
  * through the calibrated CostModel (see DESIGN.md §2 — GPU runtimes are
  * the one thing this environment cannot measure, so they are modelled
  * from the paper's published per-operator breakdown).
  */
final case class RunStats(
    framesTotal: Long,
    framesAfterRvp: Long,
    detections: Long,
    detsAfterOtp: Long,
    depthFrames: Long,   // frames run through the ML depth model (incl. geometry fallbacks)
    geomDets: Long,      // detections located by the geometry-based estimator
    trackerFrames: Long, // frames the tracker performed data association on
    trackerDets: Long,
    trackerPairOps: Long, // Hungarian det x track cost-matrix cells
    trackerRan: Boolean,
    rvpApplied: Boolean,
    otpApplied: Boolean,
    geomApplied: Boolean,
    efsApplied: Boolean,
    queryRowsExamined: Long = 0L) {

  /** Unit counts of `this` and `o` summed (e.g. two scenes of one run);
    * the flags are this run's.
    */
  def +(o: RunStats): RunStats = copy(
    framesTotal = framesTotal + o.framesTotal, framesAfterRvp = framesAfterRvp + o.framesAfterRvp,
    detections = detections + o.detections, detsAfterOtp = detsAfterOtp + o.detsAfterOtp,
    depthFrames = depthFrames + o.depthFrames, geomDets = geomDets + o.geomDets,
    trackerFrames = trackerFrames + o.trackerFrames, trackerDets = trackerDets + o.trackerDets,
    trackerPairOps = trackerPairOps + o.trackerPairOps,
    queryRowsExamined = queryRowsExamined + o.queryRowsExamined)

  def prunedFrameFraction: Double =
    if (framesTotal == 0) 0.0 else 1.0 - framesAfterRvp.toDouble / framesTotal

  def prunedDetFraction: Double =
    if (detections == 0) 0.0 else 1.0 - detsAfterOtp.toDouble / detections
}

/** Per-operator costs in milliseconds, calibrated to the paper's numbers:
  *
  *  - baseline workflow 34 s per 240-frame video, 89.9 % in the video
  *    processor (§7.2.1) ⇒ ~127 ms/frame of video processing;
  *  - Monodepth2 = 48 % of baseline video processing (§6.3) ⇒ 61.2 ms/frame,
  *    geometry-based estimation 192× faster (§6.3.3);
  *  - tracking ≈ 26 % (§6.2.2) ⇒ ~33 ms/frame at ~6 objects/frame;
  *  - RVP overhead 0.1 % (§6.1.3), OTP overhead 0.06 % (§6.2.2).
  */
object CostModel {
  // Baseline video-processing operators (nuScenes-style 1600x900 video).
  val DecodeMs     = 2.0
  val YoloMs       = 31.0
  val MonodepthMs  = 61.2
  val GeomPerDetMs = 0.055 // ≈ Monodepth 192x reduction at ~6 det/frame

  // StrongSORT-style tracker: fixed per frame + per detection (appearance
  // features) + per Hungarian cost-matrix cell.
  val TrackerFrameMs = 5.0
  val TrackerDetMs   = 4.0
  val TrackerPairMs  = 0.05

  // Optimization-operator overheads.
  val RvpPerFrameMs = 0.12
  val OtpPerDetMs   = 0.012
  val EfsPerFrameMs = 1.0

  // Movable-Objects Query Engine: per candidate row examined after index
  // pushdown. Devkit-style Python loops pay PyPerRowMs per candidate (the
  // paper's "costly linear algebra" per check) and examine far more
  // candidates (no temporal/spatial index).
  val SqlPerRowMs = 0.01
  val PyPerRowMs  = 0.2
  /** Materializing more combination rows than this is the paper's Q4
    * devkit out-of-memory condition.
    */
  val DevkitOomRows = 1e8

  // Alternative ML functions used in the §7.1 system comparisons.
  val YoloLowResMs    = 12.0  // VIVA's 360x240 input
  val DeepSortFrameMs = 4.0
  val DeepSortDetMs   = 3.0
  val Yolo3AerialMs   = 160.0 // SkyQuery's customized YOLOv3 on 1080p aerial frames
  val SkyEstFrameMs   = 1.0
  val SortFrameMs     = 3.0
  val SortDetMs       = 2.5

  // Comparator-system specifics.
  val EvaFrameEvalMs    = 1.5
  val EvaCacheReadMs    = 2.0
  val OtifProxyMs       = 8.0
  val VivaPlanOverheadMs = 40000.0
  val OtifTrainMs        = 61.0 * 60000 + 37000 // 61m37s (§7.1.4)

  /** Video-processor runtime of a Spatialyze plan (§5.2.2 + §6 operators),
    * with overridable per-operator costs so the same instrumented run can
    * be priced with a comparator system's ML functions (VIVA's low-res
    * YOLO + DeepSORT, SkyQuery's YOLOv3 + SORT, ...).
    */
  def videoMs(s: RunStats, detect: Double = YoloMs,
              depth: Double = MonodepthMs, geomDet: Double = GeomPerDetMs,
              trackFrame: Double = TrackerFrameMs, trackDet: Double = TrackerDetMs,
              trackPair: Double = TrackerPairMs): Double = {
    var ms = DecodeMs * s.framesTotal
    if (s.rvpApplied) ms += RvpPerFrameMs * s.framesTotal
    ms += detect * s.framesAfterRvp
    if (s.otpApplied) ms += OtpPerDetMs * s.detections
    ms += depth * s.depthFrames
    if (s.geomApplied) ms += geomDet * s.geomDets
    if (s.efsApplied) ms += EfsPerFrameMs * s.framesAfterRvp
    if (s.trackerRan)
      ms += trackFrame * s.trackerFrames + trackDet * s.trackerDets +
        trackPair * s.trackerPairOps
    ms
  }

  def queryEngineMs(s: RunStats): Double = SqlPerRowMs * s.queryRowsExamined

  /** End-to-end workflow runtime (Data Integrator and Output Composer are
    * the paper's 0.01 % / 0.6 % — folded into a small constant per video).
    */
  def workflowMs(s: RunStats): Double = {
    val videos = math.max(1L, s.framesTotal / 240)
    videoMs(s) + queryEngineMs(s) + 200.0 * videos
  }

  def fps(s: RunStats): Double = s.framesTotal / (videoMs(s) / 1000.0)
}
