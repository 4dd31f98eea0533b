package repro.core

import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.catalyst.SpatialFunctions
import repro.sflow._

/** Result of the Movable-Objects Query Engine: the plan of the matching
  * (scene, frame, objects...) rows, the generated SQL, and the modelled
  * number of candidate rows the engine examined (temporal-index-aligned
  * self-joins × bbox-prefiltered construct candidates) — the devkit
  * comparison's cost basis.
  *
  * `rows` is not cached: every action on it runs the SQL. A caller that
  * reads it more than once should cache it, and then owns that cache.
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
  * into a bbox check + exact test, the join's condition. The camera
  * table, one row per frame, is broadcast too.
  *
  * Headings, trajectory flags and per-frame sample counts are scene-local
  * facts: the video processor's scene pass derives them (§5.2.2), and the
  * engine reads them as columns of `objs`.
  *
  * Execution is deferred (§5.2): the engine returns the query as a plan,
  * and the Output Composer's action (or the caller's) runs it once.
  */
object QueryEngine {

  private val viewCounter = new AtomicLong()

  /** The camera table `run` joins: one row per frame, the ego camera's
    * ground position and heading.
    */
  def cams(frames: DataFrame): DataFrame =
    frames.select(col("sceneId"), col("frameIdx"), col("camX").as("x"), col("camY").as("y"),
                  col("camYaw").as("heading"))

  /** Σ_f n_f^k over the frames of `objs`, the frame-aligned k-tuples of
    * the query's k object references (at least 1). It equals the sum over
    * samples of n_f^(k−1), read from the `nFrame` column: one global
    * aggregate, no shuffle by frame.
    */
  def sumNk(objs: DataFrame, query: Query): Double = {
    val k = math.max(1, query.requirements.objRefs.size)
    val r = objs.agg(sum(pow(col("nFrame"), lit((k - 1).toDouble)))).collect()(0)
    if (r.isNullAt(0)) 0.0 else r.getDouble(0)
  }

  /** Modelled candidate-row count of `query`: its frame-aligned object
    * `tuples` (`sumNk`) times the bbox-prefiltered construct candidates
    * (~4 per construct ref).
    */
  def rowsExamined(query: Query, tuples: Double): Long =
    (tuples * math.pow(4.0, query.requirements.geoRefs.size)).toLong

  private def sqlLit(s: String): String = "'" + s.replace("'", "''") + "'"

  /** Compile the predicate into SQL and return its plan as `rows`.
    * `objs` must have columns (sceneId, frameIdx, oid, otype, x, y,
    * heading, turnleft, stopped, nFrame), as `VideoProcessor.run` emits
    * them; `cams` (sceneId, frameIdx, x, y, heading); `roads` the
    * RoadNetwork table. The only Spark work here is the modelled
    * `rowsExamined` sum; the SQL runs in every action on `rows`. The temp
    * views it registers are dropped before it returns, and it caches
    * nothing.
    */
  def run(spark: SparkSession, query: Query, objs: DataFrame, cams: DataFrame,
          roads: DataFrame, fps: Double): QueryResult = {
    SpatialFunctions.register(spark)
    val pred  = query.pred
    val objRs = query.requirements.objRefs
    val geoRs = query.requirements.geoRefs
    val cs    = Pred.conjuncts(pred)

    val tag = s"v${viewCounter.incrementAndGet()}"
    // The road network and the camera table are small: broadcast them, so
    // each construct reference plans as a nested-loop join whose condition
    // is the bbox prefilter + exact test, not as a Cartesian product, and
    // the camera joins without a shuffle.
    val views = Seq(s"objs_$tag" -> objs, s"cams_$tag" -> broadcast(cams), s"roads_$tag" -> broadcast(roads))
    views.foreach { case (name, df) => df.createOrReplaceTempView(name) }

    def alias(t: Term): String = t match {
      case ObjRef(n)    => n
      case CamRef       => "cam"
      case GeoRef(n, _) => n
    }
    def xy(t: Term): (String, String) = (s"${alias(t)}.x", s"${alias(t)}.y")
    def headingCol(t: Term): String = s"${alias(t)}.heading"

    // FROM: anchor object, then frame-aligned self-joins (the temporal
    // index), the camera and the construct candidates.
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

    def compile(p: Pred): String = p match {
      case TypeIs(o, ts) =>
        s"${alias(o)}.otype IN (${ts.toSeq.sorted.map(sqlLit).mkString(", ")})"
      case Contains(g, terms) =>
        terms.map { t =>
          val (tx, ty) = xy(t)
          s"st_contains(${alias(g)}.xs, ${alias(g)}.ys, $tx, $ty)"
        }.mkString(" AND ")
      // Distance and heading compile to Spark's own arithmetic, bit for bit
      // `Vec2.dist` and `Heading.diff` (whose `canon` is Spark's `pmod`). A
      // null heading makes the comparison null, so it never matches.
      case DistanceLt(a, b, d) =>
        val (ax, ay) = xy(a); val (bx, by) = xy(b)
        s"sqrt(($ax - $bx) * ($ax - $bx) + ($ay - $by) * ($ay - $by)) < $d"
      case HeadingDiffBetween(a, b, lo, hi) =>
        val d = s"abs(pmod(${headingCol(a)}, 360D) - pmod(${headingCol(b)}, 360D))"
        s"CASE WHEN $d > 180D THEN 360D - $d ELSE $d END BETWEEN $lo AND $hi"
      case TurnLeft(o) => s"${alias(o)}.turnleft"
      case Stopped(o)  => s"${alias(o)}.stopped"
      case And(ps)     => ps.map(q => s"(${compile(q)})").mkString(" AND ")
      case Or(ps)      => ps.map(q => s"(${compile(q)})").mkString(" OR ")
    }

    val where = cs.map(c => s"(${compile(c)})").mkString("\n  AND ")

    val select =
      (Seq(s"$anchor.sceneId AS sceneId", s"$anchor.frameIdx AS frameIdx") ++
        objRs.map(o => s"${alias(o)}.oid AS ${alias(o)}_oid")).mkString(", ")

    val sql  = s"SELECT DISTINCT $select\nFROM $from\nWHERE $where"
    // Analysed now, so it outlives the views dropped below; executed by
    // whichever action reads it, outside any cache, so adaptive execution
    // can coalesce its shuffle stages.
    val rows = spark.sql(sql)

    // Drop the names only (`spark.catalog.dropTempView` would also
    // uncache a caller's cached `cams` or `roads`).
    views.foreach { case (name, _) => spark.sessionState.catalog.dropTempView(name) }
    QueryResult(rows, rowsExamined(query, sumNk(objs, query)), sql)
  }
}
