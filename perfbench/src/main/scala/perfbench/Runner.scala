package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}

import scala.jdk.CollectionConverters._
import scala.util.hashing.MurmurHash3

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.joins.BaseJoinExec
import org.apache.spark.sql.functions.col
import repro.core.{OutputComposer, QueryEngine, Snippet, SpatialyzeWorld, VideoProcessor}
import repro.exp.Dataset
import repro.sflow.{And, Queries, Query}
import repro.video.RunStats

/** What a workflow produced: its result size, an order-independent digest
  * of its result rows and the RunStats unit counts — the three things the
  * correctness check compares against the pinned reference.
  */
final case class Outcome(rows: Long, digest: String, stats: String, framesIn: Long) {
  def matches(ref: Reference): Boolean = rows == ref.rows && digest == ref.digest && stats == ref.stats
}

object Outcome {
  private def hash64(s: String): Long =
    (MurmurHash3.stringHash(s, 0x5eed).toLong << 32) | (MurmurHash3.stringHash(s, 0xbeef).toLong & 0xffffffffL)

  /** Sum of 64-bit row hashes: independent of row order, sensitive to
    * every row and to duplicates.
    */
  def digest(lines: Iterable[String]): String = f"${lines.foldLeft(0L)(_ + hash64(_))}%016x"

  def rowsDigest(rows: Iterable[Row]): String = digest(rows.map(_.mkString("|")))

  def statsString(s: RunStats): String =
    Seq(s.framesTotal, s.framesAfterRvp, s.detections, s.detsAfterOtp, s.depthFrames, s.geomDets,
        s.trackerFrames, s.trackerDets, s.trackerPairOps, s.queryRowsExamined).mkString(",")
}

/** Spark session state that leaks across workflows if nobody releases it. */
final case class SessionState(persistedRdds: Int, tempViews: Int, cacheMb: Double, gcMs: Double)

/** Per-layer measurements of one traced workflow. */
final case class LayerRecord(step: Step, cores: Int, wallMs: Double, selfMs: Double,
                             vpMs: Double, qeMs: Double, ocMs: Double,
                             vp: GroupWork, qe: GroupWork, oc: GroupWork, glue: GroupWork,
                             stats: RunStats, qeRowsIn: Long, qeJoinRows: Long, qeRowsOut: Long,
                             ocSnippets: Long, ocBytes: Long, ocObjects: Long,
                             framesIn: Long, framesKept: Long,
                             session: SessionState, fnReregistrations: Int) {
  /** Counts taken at the layer boundary that disagree with RunStats. */
  def reconcileMismatches: Int =
    Seq(framesIn == stats.framesTotal, framesKept == stats.framesAfterRvp).count(!_)
}

/** Runs workflows of one world, either through the public
  * build–filter–observe API (untraced) or by calling the layers
  * VideoProcessor.run → QueryEngine.run → OutputComposer in the order
  * observe() calls them, with a span and a Spark job group around each.
  */
final class Runner(spark: SparkSession, ds: Dataset, outDir: Path) {

  private def snippetPath(step: Step): String =
    outDir.resolve(s"snippets-${step.query}-${step.plan}.jsonl").toString

  private def world(step: Step): SpatialyzeWorld =
    new SpatialyzeWorld(spark, ds.fps).addGeogConstructs(ds.net)
      .addVideo(ds.frames, ds.gtStates).filter(Queries.byName(step.query).pred)

  /** One workflow through the public API. Returns its outcome and its
    * latency: from the observe/getObjects/saveVideos call until the rows
    * are counted, the objects collected or the manifest written, with the
    * share of CPU time stolen from this machine over the same interval.
    */
  def observe(step: Step): (Outcome, Timing) = {
    val w  = world(step)
    val c0 = CpuTicks.now()
    val t0 = System.nanoTime()
    def timing = Timing((System.nanoTime() - t0) / 1e6, c0.stealShare(CpuTicks.now()))
    step.output match {
      case "rows" =>
        val res = w.observe(step.config, step.query)
        val n   = res.rows.count()
        val lat = timing
        (Outcome(n, Outcome.rowsDigest(res.rows.collect()), Outcome.statsString(res.stats),
                 res.stats.framesTotal), lat)
      case "objects" =>
        val (objs, res) = w.getObjects(step.config)
        val got = objs.collect()
        val lat = timing
        (Outcome(got.length, Outcome.rowsDigest(got), Outcome.statsString(res.stats),
                 res.stats.framesTotal), lat)
      case "snippets" =>
        val (snips, res) = w.saveVideos(snippetPath(step), step.config)
        val lat = timing
        (Outcome(snips.size, Outcome.digest(snips.map(_.toString)), Outcome.statsString(res.stats),
                 res.stats.framesTotal), lat)
    }
  }

  def sessionState(): SessionState = {
    val sc = spark.sparkContext
    SessionState(
      sc.getPersistentRDDs.size,
      spark.sessionState.catalog.listLocalTempViews("*").size,
      sc.getRDDStorageInfo.map(_.memSize).sum / 1048576.0,
      ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum.toDouble)
  }

  /** Output rows of every join in the plan that produced `rows`, read from
    * the joins' numOutputRows metrics after the plan has run. Cached
    * inputs of that plan are not descended into: their joins belong to
    * the layer that built them.
    */
  private def joinRows(rows: DataFrame): Long = {
    def nodes(p: SparkPlan, intoCache: Boolean): Seq[SparkPlan] = p match {
      case a: AdaptiveSparkPlanExec => nodes(a.executedPlan, intoCache)
      case s: QueryStageExec        => nodes(s.plan, intoCache)
      case m: InMemoryTableScanExec =>
        if (intoCache) m +: nodes(m.relation.cachedPlan, intoCache = false) else Seq(m)
      case other => other +: other.children.flatMap(nodes(_, intoCache))
    }
    nodes(rows.queryExecution.executedPlan, intoCache = true).collect {
      case j: BaseJoinExec => j.metrics.get("numOutputRows").map(_.value).getOrElse(0L)
    }.sum
  }

  /** One workflow layer by layer, with spans and job groups. */
  def traced(step: Step, wf: Int, tracer: Tracer, listener: GroupListener): (Outcome, LayerRecord) = {
    val sc    = spark.sparkContext
    // observe() builds the query from the world's conjoined filters and
    // names it after the caller's workflow name ("workflow" by default).
    val name  = if (step.output == "rows") step.query else "workflow"
    val query = Query(name, name, And(Vector(Queries.byName(step.query).pred)))
    def layer[A](l: String)(body: => A): A = {
      sc.setJobGroup(s"wf$wf.$l", l)
      try tracer.span(l, wf)(body) finally sc.setJobGroup(s"wf$wf", "workflow")
    }

    val before   = sessionState()
    val fnBefore = Reregistrations.count
    sc.setJobGroup(s"wf$wf", "workflow")
    // produced: the Output Composer's objects or snippets; None for rows,
    // which observe() leaves counted in the query engine's cache.
    val (proc, qr, produced) = tracer.span("workflow", wf) {
      val proc = layer("vp")(VideoProcessor.run(spark, ds.frames, ds.gtStates, ds.net, query, step.config, ds.fps))
      val cams = ds.frames.select(col("sceneId"), col("frameIdx"), col("camX").as("x"),
                                  col("camY").as("y"), col("camYaw").as("heading"))
      val qr   = layer("qe")(QueryEngine.run(spark, query, proc.objs, cams, ds.net.toDF(spark), ds.fps))
      val produced: Option[Either[Seq[Row], Seq[Snippet]]] = step.output match {
        case "rows"     => qr.rows.count(); None
        case "objects"  => Some(Left(layer("oc")(OutputComposer.getObjects(qr.rows, proc.objs).collect()).toSeq))
        case "snippets" => Some(Right(layer("oc")(OutputComposer.saveVideos(qr.rows, snippetPath(step)))))
      }
      (proc, qr, produced)
    }
    sc.clearJobGroup()
    val after = sessionState()
    val work  = Seq("vp", "qe", "oc", "glue").map { l =>
      l -> listener.take(if (l == "glue") s"wf$wf" else s"wf$wf.$l")
    }.toMap
    val spans = tracer.spans.filter(_.workflow == wf)
    def ms(l: String) = spans.find(_.name == l).map(_.ms).getOrElse(0.0)
    val root  = spans.find(_.name == "workflow").get
    val stats = proc.stats.copy(queryRowsExamined = qr.rowsExamined)
    // Everything below runs after the workflow span and outside any job
    // group, so it costs no layer wall time and no layer Spark work.
    val outcome = produced.getOrElse(Left(qr.rows.collect().toSeq)) match {
      case Left(rs)  => Outcome(rs.size, Outcome.rowsDigest(rs), Outcome.statsString(stats), stats.framesTotal)
      case Right(ss) => Outcome(ss.size, Outcome.digest(ss.map(_.toString)), Outcome.statsString(stats), stats.framesTotal)
    }
    val record = LayerRecord(
      step, sc.defaultParallelism, root.ms, tracer.selfMs(root), ms("vp"), ms("qe"), ms("oc"),
      work("vp"), work("qe"), work("oc"), work("glue"), stats,
      qeRowsIn = proc.objs.count(), qeJoinRows = joinRows(qr.rows), qeRowsOut = qr.rows.count(),
      ocSnippets = produced.flatMap(_.toOption).map(_.size.toLong).getOrElse(0L),
      ocBytes = if (step.output == "snippets") Files.size(Paths.get(snippetPath(step))) else 0L,
      ocObjects = produced.flatMap(_.left.toOption).map(_.size.toLong).getOrElse(0L),
      framesIn = ds.frames.count(), framesKept = proc.keptFrames.count(),
      session = SessionState(after.persistedRdds - before.persistedRdds, after.tempViews - before.tempViews,
                             after.cacheMb - before.cacheMb, after.gcMs - before.gcMs),
      fnReregistrations = Reregistrations.count - fnBefore)
    (outcome, record)
  }

}
