package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.sflow.{Analyzer, And, Pred, Query}
import repro.video.{CostModel, RunStats}
import repro.world.RoadNetwork

/** Outcome of observing a world: the query result, statistics, and the
  * modelled workflow runtime.
  *
  * A workflow caches nothing. `rows` is the query engine's plan: every
  * action on it runs the SQL over the scene pass's collected samples.
  */
final case class ObserveResult(rows: DataFrame, objs: DataFrame, stats: RunStats, sql: String) {
  def workflowMs: Double = CostModel.workflowMs(stats)
}

/** The build–filter–observe facade (paper §3, §4.2.4).
  *
  * Build: `addGeogConstructs` + `addVideo` (a "video" here is per-frame
  * camera metadata plus the latent ground truth only the simulated
  * detector may read — DESIGN.md §2). Filter: accumulate S-Flow
  * predicates. Observe: `getObjects` / `saveVideos`, which is when all
  * execution actually happens (§5.2's deferred execution), letting the
  * processor pick operators and optimizations from the whole workflow.
  */
final class SpatialyzeWorld(spark: SparkSession, val fps: Double = 12.0) {

  private var net: Option[RoadNetwork]   = None
  private var framesDf: Option[DataFrame] = None
  private var gtDf: Option[DataFrame]     = None
  private var preds: Vector[Pred]         = Vector.empty

  def addGeogConstructs(network: RoadNetwork): this.type = {
    net = Some(network)
    this
  }

  /** Add a geospatial video: frame/camera metadata + latent visual truth. */
  def addVideo(frames: DataFrame, gtStates: DataFrame): this.type = {
    framesDf = Some(framesDf.fold(frames)(_ unionByName frames))
    gtDf = Some(gtDf.fold(gtStates)(_ unionByName gtStates))
    this
  }

  /** Chainable filter — conjoined, as in S-Flow. */
  def filter(p: Pred): this.type = {
    preds :+= p
    this
  }

  private def currentQuery(name: String): Query = {
    require(preds.nonEmpty, "filter() the world before observing it")
    Query(name, name, And(preds))
  }

  /** Execute the workflow (the observe step's internals). */
  def observe(config: PlanConfig = PlanConfig.all, name: String = "workflow"): ObserveResult = {
    val network = net.getOrElse(throw new IllegalStateException("addGeogConstructs first"))
    val frames  = framesDf.getOrElse(throw new IllegalStateException("addVideo first"))
    val gt      = gtDf.getOrElse(throw new IllegalStateException("addVideo first"))
    val query   = currentQuery(name)
    // A construct type the network lacks would only prune every frame and
    // match nothing; reject it here, before any Spark job.
    val known   = network.segments.map(_.rtype).distinct.sorted
    val unknown = query.requirements.geoRefs.map(_.geoType).distinct.filterNot(known.contains)
    require(unknown.isEmpty,
      s"unknown construct type ${unknown.mkString("'", "', '", "'")}; the road network has " +
        (if (known.isEmpty) "no constructs" else known.mkString("'", "', '", "'")))

    val proc = VideoProcessor.run(spark, frames, gt, network, query, config, fps)
    val qr   = QueryEngine.run(spark, query, proc.objs, QueryEngine.cams(frames), network.toDF(spark), fps)
    val stats = proc.stats.copy(queryRowsExamined = qr.rowsExamined)
    ObserveResult(qr.rows, proc.objs, stats, qr.sql)
  }

  /** Observe by collecting the filtered Movable Objects. */
  def getObjects(config: PlanConfig = PlanConfig.all): (DataFrame, ObserveResult) = {
    val res = observe(config)
    (OutputComposer.getObjects(res.rows, res.objs), res)
  }

  /** Observe by saving matching video snippets (manifests — no pixels). */
  def saveVideos(path: String, config: PlanConfig = PlanConfig.all): (Seq[Snippet], ObserveResult) = {
    val res = observe(config)
    (OutputComposer.saveVideos(res.rows, path), res)
  }
}
