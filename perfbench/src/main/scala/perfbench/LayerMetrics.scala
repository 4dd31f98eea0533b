package perfbench

import scala.collection.mutable

import repro.video.CostModel

/** Per-layer metrics of a workload from its traced workflows. Additive
  * quantities are means per workflow; ratios are ratios of sums.
  */
object LayerMetrics {

  private def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b

  def modelledVpS(r: LayerRecord): Double = CostModel.videoMs(r.stats) / 1000.0

  def apply(recs: Seq[LayerRecord], warm: Seq[LayerRecord], recs1: Seq[LayerRecord], worldMs: Double,
            stealShare: Double, untracedMs: Double, tracedMs: Double): Seq[(String, Double, String)] = {
    def mean(f: LayerRecord => Double): Double = ratio(recs.map(f).sum, recs.size)
    def sum(f: LayerRecord => Double): Double  = recs.map(f).sum
    def idle(ms: LayerRecord => Double, w: LayerRecord => GroupWork): Double =
      mean(r => ms(r) * r.cores - w(r).busyMs)
    // The single-core pass repeats the warm workflows; compare like with like.
    def mean1(f: LayerRecord => Double): Double = ratio(recs1.map(f).sum, recs1.size)
    def slowdown(f: LayerRecord => Double): Double =
      ratio(recs1.map(f).sum, warm.filter(w => recs1.exists(_.step == w.step)).map(f).sum)
    Seq(
      ("world.build_ms", worldMs, "ms"),
      ("workflow.wall_ms", mean(_.wallMs), "ms"),
      ("workflow.self_ms", mean(_.selfMs), "ms"),
      ("vp.wall_ms", mean(_.vpMs), "ms"),
      ("vp.wall_share", ratio(sum(_.vpMs), sum(_.wallMs)), "ratio"),
      ("vp.jobs", mean(_.vp.jobs), "count"),
      ("vp.stages", mean(_.vp.stages), "count"),
      ("vp.tasks", mean(_.vp.tasks), "count"),
      ("vp.busy_ms", mean(_.vp.busyMs), "ms"),
      ("vp.idle_core_ms", idle(_.vpMs, _.vp), "ms"),
      ("vp.shuffle_mb", mean(_.vp.shuffleMb), "MB"),
      ("vp.frames_in", mean(_.stats.framesTotal), "frames"),
      ("vp.frames_kept", mean(_.stats.framesAfterRvp), "frames"),
      ("vp.rvp_keep_ratio", ratio(sum(_.stats.framesAfterRvp), sum(_.stats.framesTotal)), "ratio"),
      ("vp.dets", mean(_.stats.detections), "count"),
      ("vp.otp_keep_ratio", ratio(sum(_.stats.detsAfterOtp), sum(_.stats.detections)), "ratio"),
      ("vp.tracker_dets", mean(_.stats.trackerDets), "count"),
      ("vp.tracker_pair_ops", mean(_.stats.trackerPairOps), "count"),
      ("vp.modelled_s", mean(modelledVpS), "s"),
      ("qe.wall_ms", mean(_.qeMs), "ms"),
      ("qe.wall_share", ratio(sum(_.qeMs), sum(_.wallMs)), "ratio"),
      ("qe.jobs", mean(_.qe.jobs), "count"),
      ("qe.stages", mean(_.qe.stages), "count"),
      ("qe.busy_ms", mean(_.qe.busyMs), "ms"),
      ("qe.idle_core_ms", idle(_.qeMs, _.qe), "ms"),
      ("qe.shuffle_mb", mean(_.qe.shuffleMb), "MB"),
      ("qe.rows_in", mean(_.qeRowsIn), "rows"),
      ("qe.join_rows", mean(_.qeJoinRows), "rows"),
      ("qe.rows_out", mean(_.qeRowsOut), "rows"),
      ("qe.match_ratio", ratio(sum(_.qeRowsOut), sum(_.qeJoinRows)), "ratio"),
      ("qe.rows_examined_modelled", mean(_.stats.queryRowsExamined), "rows"),
      ("oc.wall_ms", mean(_.ocMs), "ms"),
      ("oc.jobs", mean(_.oc.jobs), "count"),
      ("oc.snippets", mean(_.ocSnippets), "count"),
      ("oc.bytes_written", mean(_.ocBytes), "bytes"),
      ("oc.objects_out", mean(_.ocObjects), "rows"),
      ("session.persisted_rdds_delta", mean(_.session.persistedRdds), "count"),
      ("session.temp_views_delta", mean(_.session.tempViews), "count"),
      ("session.cache_mb_delta", mean(_.session.cacheMb), "MB"),
      ("session.gc_ms", mean(_.session.gcMs), "ms"),
      ("session.fn_reregistrations", mean(_.fnReregistrations), "count"),
      ("spark.jobs_per_workflow", mean(r => (r.vp + r.qe + r.oc + r.glue).jobs), "count"),
      ("trace.overhead_pct", 100.0 * ratio(tracedMs - untracedMs, untracedMs), "%"),
      ("trace.reconcile_mismatches", sum(_.reconcileMismatches), "count"),
      ("host.steal_share", stealShare, "ratio"),
      ("core1.vp_wall_ms", mean1(_.vpMs), "ms"),
      ("core1.qe_wall_ms", mean1(_.qeMs), "ms"),
      ("core1.oc_wall_ms", mean1(_.ocMs), "ms"),
      ("core1.vp_slowdown", slowdown(_.vpMs), "ratio"),
      ("core1.qe_slowdown", slowdown(_.qeMs), "ratio"))
  }

  /** One traced workflow, as written to the trace file. */
  def row(r: LayerRecord): mutable.LinkedHashMap[String, Any] = mutable.LinkedHashMap(
    "step" -> r.step.key, "cores" -> r.cores, "wall_ms" -> r.wallMs, "self_ms" -> r.selfMs,
    "vp_ms" -> r.vpMs, "qe_ms" -> r.qeMs, "oc_ms" -> r.ocMs,
    "vp" -> r.vp, "qe" -> r.qe, "oc" -> r.oc, "glue" -> r.glue,
    "vp_modelled_s" -> modelledVpS(r), "stats" -> r.stats,
    "qe_rows_in" -> r.qeRowsIn, "qe_join_rows" -> r.qeJoinRows, "qe_rows_out" -> r.qeRowsOut,
    "oc_snippets" -> r.ocSnippets, "oc_bytes" -> r.ocBytes, "oc_objects" -> r.ocObjects,
    "frames_in" -> r.framesIn, "frames_kept" -> r.framesKept,
    "session_delta" -> r.session, "fn_reregistrations" -> r.fnReregistrations)

  /** Per-workflow tables; for each query run under both plans, S6 beside
    * SB with measured and modelled video-processor time in separate
    * columns.
    */
  def printTables(wl: Workload, recs: Seq[LayerRecord], warm: Seq[LayerRecord], recs1: Seq[LayerRecord]): Unit = {
    println(s"${wl.name}: per workflow (local[*])")
    println(f"  ${"workflow"}%-20s ${"wall_ms"}%9s ${"vp_ms"}%9s ${"qe_ms"}%9s ${"oc_ms"}%8s " +
      f"${"self_ms"}%8s ${"jobs"}%5s ${"vp_mod_s"}%9s")
    recs.foreach { r =>
      println(f"  ${r.step.key}%-20s ${r.wallMs}%9.1f ${r.vpMs}%9.1f ${r.qeMs}%9.1f ${r.ocMs}%8.1f " +
        f"${r.selfMs}%8.1f ${(r.vp + r.qe + r.oc + r.glue).jobs}%5d ${modelledVpS(r)}%9.1f")
    }
    recs.groupBy(_.step.query).toSeq.sortBy(_._1).foreach { case (q, rs) =>
      (rs.find(_.step.plan == "SB"), rs.find(_.step.plan == "S6")) match {
        case (Some(sb), Some(s6)) =>
          println(s"$q: S6 beside SB")
          println(f"  ${"metric"}%-22s ${"SB"}%10s ${"S6"}%10s")
          Seq[(String, LayerRecord => Double)](
            "vp.wall_ms" -> (_.vpMs), "vp.modelled_s" -> modelledVpS,
            "qe.wall_ms" -> (_.qeMs), "workflow.wall_ms" -> (_.wallMs),
            "vp.jobs" -> (_.vp.jobs.toDouble), "vp.tracker_dets" -> (_.stats.trackerDets.toDouble)
          ).foreach { case (n, f) => println(f"  $n%-22s ${f(sb)}%10.1f ${f(s6)}%10.1f") }
        case _ =>
      }
    }
    if (recs1.nonEmpty) {
      println(s"${wl.name}: per-layer wall of warm runs, local[1] against local[*]")
      println(f"  ${"workflow"}%-20s ${"vp_ms@1"}%9s ${"vp_ms@*"}%9s ${"qe_ms@1"}%9s ${"qe_ms@*"}%9s")
      recs1.foreach { r1 =>
        warm.find(_.step == r1.step).foreach { r =>
          println(f"  ${r.step.key}%-20s ${r1.vpMs}%9.1f ${r.vpMs}%9.1f ${r1.qeMs}%9.1f ${r.qeMs}%9.1f")
        }
      }
    }
  }
}
