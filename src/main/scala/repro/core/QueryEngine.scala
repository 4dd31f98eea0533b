package repro.core

import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.catalyst.SpatialFunctions
import repro.sflow._

/** Result of the Movable-Objects Query Engine: the matching
  * (scene, frame, objects...) rows, the generated SQL, and the modelled
  * number of candidate rows the engine examined (temporal-index-aligned
  * self-joins × bbox-prefiltered construct candidates) — the devkit
  * comparison's cost basis.
  */
final case class QueryResult(rows: DataFrame, rowsExamined: Long, sql: String)

/** Movable-Objects Query Engine (§5.2.3): streams Movable-Objects samples
  * into temp views ("the geospatial metadata store") and translates the
  * S-Flow filter predicate into one Spark SQL query over objects, cameras
  * and road network.
  *
  * The paper's MobilityDB indexes map to: temporal index ⇒ every
  * multi-object self-join carries (sceneId, frameIdx) equi-join keys;
  * spatial index ⇒ the road network is broadcast to every construct
  * join, and the Catalyst SpatialPrefilterRule turns each `st_contains`
  * into a bbox check + exact test, the join's condition.
  *
  * Like the video processor (§5.2.2), the plan keeps only the operators
  * the predicate needs: object headings (a window over each track) are
  * derived only when the predicate reads headings or trajectories.
  */
object QueryEngine {

  private val viewCounter = new AtomicLong()

  /** Headings are computed over a `HeadingLag`-row baseline so estimation
    * noise does not dominate short inter-frame displacements.
    */
  val HeadingLag        = 6   // ~0.5 s at 12 fps: pedestrians move ~0.8 m
  val MinHeadingDistM   = 0.5
  val TurnLeftMinDeg    = 40.0
  val StoppedMaxDispM   = 3.0
  val StoppedMinSamples = 8

  /** Enrich Movable-Objects samples with a derived heading (degrees CCW
    * from +x) from the track geometry.
    */
  def enrich(objs: DataFrame): DataFrame = {
    val w = Window.partitionBy("sceneId", "oid").orderBy("frameIdx")
    objs
      .withColumn("_px", lag("x", HeadingLag).over(w))
      .withColumn("_py", lag("y", HeadingLag).over(w))
      .withColumn("_d", sqrt(pow(col("x") - col("_px"), 2) + pow(col("y") - col("_py"), 2)))
      .withColumn("heading",
        when(col("_d") >= MinHeadingDistM,
             pmod(degrees(atan2(col("y") - col("_py"), col("x") - col("_px"))), lit(360.0))))
      .drop("_px", "_py", "_d")
  }

  /** The camera table `run` joins: one row per frame, the ego camera's
    * ground position and heading.
    */
  def cams(frames: DataFrame): DataFrame =
    frames.select(col("sceneId"), col("frameIdx"), col("camX").as("x"), col("camY").as("y"),
                  col("camYaw").as("heading"))

  /** Per-track aggregates for trajectory predicates (turnLeft, stopped). */
  def aggregates(objs: DataFrame): DataFrame = {
    val w = Window.partitionBy("sceneId", "oid").orderBy("frameIdx")
    objs
      .withColumn("_ph", lag("heading", 1).over(w))
      .withColumn("_sd",
        when(col("heading").isNotNull && col("_ph").isNotNull,
             pmod(col("heading") - col("_ph") + 540.0, lit(360.0)) - 180.0).otherwise(0.0))
      .withColumn("_sdc", when(abs(col("_sd")) < 60.0, col("_sd")).otherwise(0.0))
      .groupBy("sceneId", "oid")
      .agg(
        sum("_sdc").as("netTurn"),
        count("*").as("nSamples"),
        (max("x") - min("x")).as("_dx"),
        (max("y") - min("y")).as("_dy"))
      .withColumn("turnleft", col("netTurn") >= TurnLeftMinDeg)
      .withColumn("stopped",
        sqrt(pow(col("_dx"), 2) + pow(col("_dy"), 2)) < StoppedMaxDispM &&
          col("nSamples") >= StoppedMinSamples)
      .select("sceneId", "oid", "turnleft", "stopped")
  }

  private def sqlLit(s: String): String = "'" + s.replace("'", "''") + "'"

  /** Compile the predicate into SQL and execute it. `objs` must have
    * columns (sceneId, frameIdx, oid, otype, x, y); `cams`
    * (sceneId, frameIdx, x, y, heading); `roads` the RoadNetwork table.
    * The temp views it registers are dropped before it returns; `rows`
    * stays cached.
    */
  def run(spark: SparkSession, query: Query, objs: DataFrame, cams: DataFrame,
          roads: DataFrame, fps: Double): QueryResult = {
    SpatialFunctions.register(spark)
    val pred  = query.pred
    val objRs = Pred.objRefs(pred)
    val geoRs = Pred.geoRefs(pred)
    val cs    = Pred.conjuncts(pred)

    val tag = s"v${viewCounter.incrementAndGet()}"
    // Headings only for predicates that read them. Without tracking every
    // oid is a single detection, whose heading would be null anyway.
    val enriched = Option.when(query.requirements.needsTracking)(enrich(objs).persist())
    val samples  = enriched.getOrElse(objs)

    def aggPreds(p: Pred): Seq[ObjRef] = p match {
      case TurnLeft(o) => Seq(o)
      case Stopped(o)  => Seq(o)
      case And(ps)     => ps.flatMap(aggPreds)
      case Or(ps)      => ps.flatMap(aggPreds)
      case _           => Nil
    }
    val aggObjs  = aggPreds(pred).distinct
    val needsAgg = aggObjs.nonEmpty
    // The road network is small and static: broadcast it, so each
    // construct reference plans as a nested-loop join whose condition is
    // the bbox prefilter + exact test, not as a Cartesian product.
    val views = Seq(s"objs_$tag" -> samples, s"cams_$tag" -> cams, s"roads_$tag" -> broadcast(roads)) ++
      (if (needsAgg) Seq(s"agg_$tag" -> aggregates(samples)) else Nil)
    views.foreach { case (name, df) => df.createOrReplaceTempView(name) }

    def alias(t: Term): String = t match {
      case ObjRef(n)    => n
      case CamRef       => "cam"
      case GeoRef(n, _) => n
    }
    def xy(t: Term): (String, String) = (s"${alias(t)}.x", s"${alias(t)}.y")
    def headingCol(t: Term): String = s"${alias(t)}.heading"

    // FROM: anchor object, then frame-aligned self-joins (the temporal
    // index), the camera, the construct candidates, and track aggregates.
    val anchor = objRs.headOption.map(alias).getOrElse("cam")
    val from   = new StringBuilder
    objRs.headOption match {
      case Some(o) => from ++= s"objs_$tag ${alias(o)}"
      case None    => from ++= s"cams_$tag cam"
    }
    objRs.drop(1).zipWithIndex.foreach { case (o, i) =>
      val prev = objRs.take(i + 1).map(alias)
      val distinctCond = prev.map(p => s"${alias(o)}.oid <> $p.oid").mkString(" AND ")
      from ++= s"\n  JOIN objs_$tag ${alias(o)} ON ${alias(o)}.sceneId = $anchor.sceneId" +
        s" AND ${alias(o)}.frameIdx = $anchor.frameIdx AND $distinctCond"
    }
    if (objRs.nonEmpty)
      from ++= s"\n  JOIN cams_$tag cam ON cam.sceneId = $anchor.sceneId AND cam.frameIdx = $anchor.frameIdx"
    geoRs.foreach { g =>
      from ++= s"\n  JOIN roads_$tag ${alias(g)} ON ${alias(g)}.rtype = ${sqlLit(g.geoType)}"
    }
    if (needsAgg) {
      aggObjs.foreach { o =>
        from ++= s"\n  JOIN agg_$tag ag_${alias(o)} ON ag_${alias(o)}.sceneId = $anchor.sceneId" +
          s" AND ag_${alias(o)}.oid = ${alias(o)}.oid"
      }
    }

    def compile(p: Pred): String = p match {
      case TypeIs(o, ts) =>
        s"${alias(o)}.otype IN (${ts.toSeq.sorted.map(sqlLit).mkString(", ")})"
      case Contains(g, terms) =>
        terms.map { t =>
          val (tx, ty) = xy(t)
          s"st_contains(${alias(g)}.xs, ${alias(g)}.ys, $tx, $ty)"
        }.mkString(" AND ")
      case DistanceLt(a, b, d) =>
        val (ax, ay) = xy(a); val (bx, by) = xy(b)
        s"st_distance($ax, $ay, $bx, $by) < $d"
      case HeadingDiffBetween(a, b, lo, hi) =>
        s"heading_diff(${headingCol(a)}, ${headingCol(b)}) BETWEEN $lo AND $hi"
      case TurnLeft(o) => s"ag_${alias(o)}.turnleft"
      case Stopped(o)  => s"ag_${alias(o)}.stopped"
      case And(ps)     => ps.map(q => s"(${compile(q)})").mkString(" AND ")
      case Or(ps)      => ps.map(q => s"(${compile(q)})").mkString(" OR ")
    }

    val where = cs.map(c => s"(${compile(c)})").mkString("\n  AND ")

    val select =
      (Seq(s"$anchor.sceneId AS sceneId", s"$anchor.frameIdx AS frameIdx") ++
        objRs.map(o => s"${alias(o)}.oid AS ${alias(o)}_oid")).mkString(", ")

    val sql  = s"SELECT DISTINCT $select\nFROM $from\nWHERE $where"
    val rows = spark.sql(sql).persist()
    rows.count()

    // Modelled candidate-row count: frame-aligned object tuples times the
    // bbox-prefiltered construct candidates (~4 per construct ref).
    val k = math.max(1, objRs.size)
    val sumNk = samples.groupBy("sceneId", "frameIdx").count()
      .agg(sum(pow(col("count"), lit(k.toDouble)))).collect()(0)
    val base = if (sumNk.isNullAt(0)) 0.0 else sumNk.getDouble(0)
    val rowsExamined = (base * math.pow(4.0, geoRs.size)).toLong

    // Drop the names only (`spark.catalog.dropTempView` would also
    // uncache a caller's cached `cams` or `roads`). The counted `rows`
    // keep their cached blocks without `enriched`.
    views.foreach { case (name, _) => spark.sessionState.catalog.dropTempView(name) }
    enriched.foreach(_.unpersist())
    QueryResult(rows, rowsExamined, sql)
  }
}
