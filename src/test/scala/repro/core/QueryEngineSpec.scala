package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.analysis.FunctionRegistry
import org.apache.spark.sql.catalyst.expressions.codegen.CodegenFallback
import org.apache.spark.sql.execution.{SparkPlan, UnionExec}
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.exchange.ReusedExchangeExec
import org.apache.spark.sql.execution.joins.{BroadcastHashJoinExec, BroadcastNestedLoopJoinExec,
                                              CartesianProductExec, SortMergeJoinExec}
import org.apache.spark.sql.execution.window.WindowExec
import org.apache.spark.sql.functions._
import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, SparkSpec}
import repro.catalyst.StContainsExact
import repro.geom.{Heading, Rng, Vec2}
import repro.sflow._
import repro.track.TrackedRow
import repro.world.{GridParams, RoadNetwork}

/** Engine-level tests over hand-crafted Movable-Objects tracks with known
  * geometry; relational behaviour is cross-checked against DuckDB. The
  * tracks get the engine's derived columns from `WindowReference`.
  */
class QueryEngineSpec extends SparkSpec {

  private val fps  = 12.0
  private val net  = RoadNetwork.grid(GridParams())
  private lazy val roadsDf = net.toDF(spark).persist()

  /** Hand-crafted world at the intersection (80, 0):
    *  - oid 1: car eastbound through the intersection (y=-1.75)
    *  - oid 2: car westbound through the intersection (y=+1.75)
    *  - oid 3: pedestrian crossing north through the intersection
    *  - oid 4: car stopped in the bike lane strip (y=+4.2)
    *  - oid 5: car driving east far from the intersection (y=-81.75)
    */
  private val tracks: Seq[(Long, Int, Long, String, Double, Double)] = (0 until 60).flatMap { f =>
    Seq(
      (0L, f, 1L, "car", 50.0 + 0.8 * f, -1.75),
      (0L, f, 2L, "car", 110.0 - 0.8 * f, 1.75),
      (0L, f, 3L, "pedestrian", 80.5, -6.0 + 0.15 * f),
      (0L, f, 4L, "car", 40.0, 4.2),
      (0L, f, 5L, "car", 30.0 + 0.8 * f, -81.75))
  }

  /** A track that goes east then north (a left turn), and one that goes
    * east then south (a right turn).
    */
  private val leftTurn  = (0 until 30).map(f => (1L, f, 9L, "car", 0.0 + 0.8 * f, 0.0)) ++
    (30 until 60).map(f => (1L, f, 9L, "car", 24.0, 0.8 * (f - 30)))
  private val rightTurn = (0 until 30).map(f => (2L, f, 8L, "car", 0.0 + 0.8 * f, 0.0)) ++
    (30 until 60).map(f => (2L, f, 8L, "car", 24.0, -0.8 * (f - 30)))

  private def samples(rows: Seq[(Long, Int, Long, String, Double, Double)]): DataFrame = {
    import spark.implicits._
    rows.toDF("sceneId", "frameIdx", "oid", "otype", "x", "y")
  }

  /** The hand-made tracks with their facts, in as many partitions as the
    * scene pass emits (the window would leave one per shuffle partition).
    */
  private lazy val objs: DataFrame = WindowReference.withFacts(samples(tracks))
    .coalesce(spark.sparkContext.defaultParallelism).persist()

  /** Static camera just west of the intersection, looking east, on the
    * eastbound lane.
    */
  private lazy val cams: DataFrame = {
    import spark.implicits._
    (0 until 60).map(f => (0L, f, 60.0, -1.75, 0.0))
      .toDF("sceneId", "frameIdx", "x", "y", "heading").persist()
  }

  private def q(name: String, pred: Pred): Query = Query(name, name, pred)

  /** One row per object sample with the spatial predicates precomputed in
    * Spark: `inside` (some construct of `rtype` contains it) and `near`
    * (within 50 m of the camera), as strings. DuckDB then checks the
    * relational plan (joins, distinct, filters) over this table.
    */
  private def flatSamples(rtype: String): DataFrame = {
    repro.catalyst.SpatialFunctions.register(spark)
    objs.createOrReplaceTempView("oracle_objs")
    cams.createOrReplaceTempView("oracle_cams")
    roadsDf.createOrReplaceTempView("oracle_roads")
    spark.sql(
      s"""SELECT o.sceneId, o.frameIdx, o.oid, o.otype,
                 CAST(MAX(CASE WHEN r.rtype = '$rtype'
                               AND st_contains(r.xs, r.ys, o.x, o.y) THEN 1 ELSE 0 END) AS STRING) AS inside,
                 CAST(MAX(CASE WHEN sqrt((o.x - c.x) * (o.x - c.x) + (o.y - c.y) * (o.y - c.y)) < 50.0
                               THEN 1 ELSE 0 END) AS STRING) AS near
          FROM oracle_objs o
          JOIN oracle_cams c ON c.sceneId = o.sceneId AND c.frameIdx = o.frameIdx
          CROSS JOIN oracle_roads r
          GROUP BY o.sceneId, o.frameIdx, o.oid, o.otype""")
  }

  /** Frame i of scene 0 holds car i at (x, y) with `heading`, seen from
    * camera pose i: the engine's `objs` and `cams`, built directly.
    */
  private def perFrame(cars: Seq[(Double, Double, Option[Double])],
                       poses: Seq[(Double, Double, Double)]): (DataFrame, DataFrame) = {
    import spark.implicits._
    val o = cars.zipWithIndex.map { case ((x, y, h), f) => (0L, f, f.toLong, "car", x, y, h, false, false, 1) }
      .toDF("sceneId", "frameIdx", "oid", "otype", "x", "y", "heading", "turnleft", "stopped", "nFrame")
    val c = poses.zipWithIndex.map { case ((x, y, h), f) => (0L, f, x, y, h) }
      .toDF("sceneId", "frameIdx", "x", "y", "heading")
    (o, c)
  }

  private def frames(res: QueryResult): Set[Int] =
    res.rows.select("frameIdx").collect().map(_.getInt(0)).toSet

  /** Every operator of the plan that computes `df`, looking through
    * adaptive query stages but never into cached inputs (the hand-made
    * `objs` is a cached window plan).
    */
  private def operators(df: DataFrame): Seq[SparkPlan] = {
    def walk(p: SparkPlan): Seq[SparkPlan] = p match {
      case a: AdaptiveSparkPlanExec => walk(a.executedPlan)
      case s: QueryStageExec        => walk(s.plan)
      case r: ReusedExchangeExec    => walk(r.child)
      case other                    => other +: other.children.flatMap(walk)
    }
    walk(df.queryExecution.executedPlan)
  }

  test("enrich derives headings from track displacement") {
    val e = WindowReference.enrich(samples(tracks))
    val h1 = e.filter(col("oid") === 1 && col("heading").isNotNull)
      .agg(avg("heading")).collect()(0).getDouble(0)
    assert(math.abs(h1 - 0.0) < 1.0, s"eastbound heading $h1")
    val h2 = e.filter(col("oid") === 2 && col("heading").isNotNull)
      .agg(avg("heading")).collect()(0).getDouble(0)
    assert(math.abs(h2 - 180.0) < 1.0, s"westbound heading $h2")
  }

  test("enrich leaves stationary objects without a heading") {
    val e = WindowReference.enrich(samples(tracks))
    assert(e.filter(col("oid") === 4 && col("heading").isNotNull).count() === 0L)
  }

  test("aggregates flag stopped tracks and only those") {
    val agg = WindowReference.aggregates(WindowReference.enrich(samples(tracks)))
    val stopped = agg.filter(col("stopped")).select("oid").collect().map(_.getLong(0)).toSet
    assert(stopped === Set(4L))
  }

  test("aggregates flag left turns") {
    val agg = WindowReference.aggregates(WindowReference.enrich(samples(leftTurn)))
    assert(agg.filter(col("turnleft")).count() === 1L)
    // A right turn (east then south) must NOT count.
    val agg2 = WindowReference.aggregates(WindowReference.enrich(samples(rightTurn)))
    assert(agg2.filter(col("turnleft")).count() === 0L)
  }

  test("the scene pass derives the window reference's facts on the hand-made tracks") {
    val all = tracks ++ leftTurn ++ rightTurn
    val pass = all.groupBy(_._1).values.flatMap { scene =>
      VideoProcessor.withFacts(scene.map { case (sid, f, oid, otype, x, y) =>
        TrackedRow(sid, f, oid, oid, oid, otype, x, y) }.toVector)
    }.map(s => (s.sceneId, s.frameIdx, s.trackId, Option.when(!s.heading.isNaN)(s.heading),
                s.turnleft, s.stopped, s.nFrame)).toSet
    val ref = WindowReference.withFacts(samples(all)).collect().map { r =>
      (r.getLong(0), r.getInt(1), r.getLong(2), Option.unless(r.isNullAt(6))(r.getDouble(6)),
       r.getBoolean(7), r.getBoolean(8), r.getInt(9))
    }.toSet
    assert(pass === ref)
    def oids(p: ((Long, Int, Long, Option[Double], Boolean, Boolean, Int)) => Boolean) =
      pass.filter(p).map(_._3)
    assert(oids(_._6) === Set(4L), "only the parked car is stopped")
    assert(oids(_._5) === Set(9L), "only the left turn turns left")
    assert(oids(_._4.isEmpty).contains(4L) && !oids(_._4.nonEmpty).contains(4L))
  }

  test("single-object containment query returns exactly the frames inside the polygon") {
    val person = ObjRef("p")
    val pred = Pred.and(TypeIs(person, Set("pedestrian")),
                        Contains(GeoRef("i", "intersection"), Seq(person)),
                        DistanceLt(CamRef, person, 50.0))
    val res = QueryEngine.run(spark, q("tq1", pred), objs, cams, roadsDf, fps)
    val frames = res.rows.select("frameIdx").collect().map(_.getInt(0)).sorted
    // Pedestrian y = -6 + 0.15 f is inside the intersection square
    // ([76.5,83.5] x [-3.5,3.5]) for f in [17, 60) -> 0.15f in [2.5, 9.5].
    val expected = (0 until 60).filter { f =>
      val y = -6.0 + 0.15 * f
      y >= -3.5 && y <= 3.5
    }
    assert(frames.toSeq === expected, s"got ${frames.toSeq}")
  }

  test("the same query cross-checked relationally against DuckDB") {
    val person = ObjRef("p")
    val pred = Pred.and(TypeIs(person, Set("pedestrian")),
                        Contains(GeoRef("i", "intersection"), Seq(person)),
                        DistanceLt(CamRef, person, 50.0))
    val res = QueryEngine.run(spark, q("tq2", pred), objs, cams, roadsDf, fps)

    val flat = flatSamples("intersection")
    val sparkSide = res.rows.select(
      col("sceneId").cast("long").as("sceneid"),
      col("frameIdx").cast("long").as("frameidx"),
      col("p_oid").cast("long").as("p_oid"))
    Oracle.assertEquivalent(sparkSide,
      """SELECT DISTINCT CAST(sceneId AS BIGINT) AS sceneid, CAST(frameIdx AS BIGINT) AS frameidx,
                         CAST(oid AS BIGINT) AS p_oid
         FROM flat WHERE otype = 'pedestrian' AND inside = '1' AND near = '1'""",
      "flat" -> flat)
  }

  test("a two-construct query (two cars, each on a lane) cross-checked against DuckDB") {
    val c1 = ObjRef("c1"); val c2 = ObjRef("c2")
    val pred = Pred.and(TypeIs(c1, Set("car")), TypeIs(c2, Set("car")),
                        Contains(GeoRef("l1", "lane"), Seq(c1)),
                        Contains(GeoRef("l2", "lane"), Seq(c2)),
                        DistanceLt(CamRef, c1, 50.0), DistanceLt(CamRef, c2, 50.0))
    val res = QueryEngine.run(spark, q("tq12", pred), objs, cams, roadsDf, fps)
    val sparkSide = res.rows.select(
      col("sceneId").cast("long").as("sceneid"),
      col("frameIdx").cast("long").as("frameidx"),
      col("c1_oid").cast("long").as("c1_oid"),
      col("c2_oid").cast("long").as("c2_oid"))
    // The two through cars share lanes for part of their crossing.
    assert(sparkSide.count() > 0L)
    Oracle.assertEquivalent(sparkSide,
      """SELECT DISTINCT CAST(a.sceneId AS BIGINT) AS sceneid, CAST(a.frameIdx AS BIGINT) AS frameidx,
                         CAST(a.oid AS BIGINT) AS c1_oid, CAST(b.oid AS BIGINT) AS c2_oid
         FROM flat a JOIN flat b
           ON b.sceneId = a.sceneId AND b.frameIdx = a.frameIdx AND b.oid <> a.oid
         WHERE a.otype = 'car' AND b.otype = 'car' AND a.inside = '1' AND b.inside = '1'
           AND a.near = '1' AND b.near = '1'""",
      "flat" -> flatSamples("lane"))
  }

  test("construct joins broadcast the road network, and no window runs") {
    // Q5-Q8 read no heading: one broadcast nested-loop join per construct
    // reference (Q8 has three), no Cartesian product, no window.
    for (query <- Seq(Queries.q5, Queries.q6, Queries.q7, Queries.q8)) {
      val ops = operators(QueryEngine.run(spark, query, objs, cams, roadsDf, fps).rows)
      val names = ops.map(_.nodeName)
      assert(!ops.exists(_.isInstanceOf[CartesianProductExec]), s"${query.name}: $names")
      assert(!ops.exists(_.isInstanceOf[WindowExec]), s"${query.name}: $names")
      assert(ops.count(_.isInstanceOf[BroadcastNestedLoopJoinExec]) === Pred.geoRefs(query.pred).size,
             s"${query.name}: $names")
    }
    // Q1 compares an object's heading with the camera's: it reads the
    // heading column, so it needs no window either.
    val ops = operators(QueryEngine.run(spark, Queries.q1, objs, cams, roadsDf, fps).rows)
    assert(!ops.exists(_.isInstanceOf[WindowExec]), ops.map(_.nodeName).toString)
    assert(!ops.exists(_.isInstanceOf[CartesianProductExec]), ops.map(_.nodeName).toString)
  }

  test("heading and trajectory queries (Q1, Q9, Q10) read derived columns and broadcast the cameras") {
    for (query <- Seq(Queries.q1, Queries.q9, Queries.q10)) {
      val ops   = operators(QueryEngine.run(spark, query, objs, cams, roadsDf, fps).rows)
      val names = s"${query.name}: ${ops.map(_.nodeName)}"
      assert(!ops.exists(_.isInstanceOf[WindowExec]), names)
      // The camera joins by broadcast hash. The only sort-merge joins left
      // are the frame-aligned object self-joins (Q9 has two objects).
      assert(ops.count(_.isInstanceOf[BroadcastHashJoinExec]) === 1, names)
      assert(ops.count(_.isInstanceOf[SortMergeJoinExec]) === Pred.objRefs(query.pred).size - 1, names)
      val built = ops.collect { case j: BroadcastHashJoinExec => j.right.output.map(_.name) }.head
      assert(Seq("sceneId", "frameIdx").forall(built.contains) && !built.contains("oid"),
             s"${query.name} broadcasts $built, not the cameras")
    }
  }

  test("Q1's query engine and one count run in under 64 tasks") {
    Seq(objs, cams, roadsDf).foreach(_.count())   // cache the inputs outside the group
    val work = sparkJobs("qe-work-Q1")(QueryEngine.run(spark, Queries.q1, objs, cams, roadsDf, fps).rows.count())
    // Uncached, the query's shuffle stages coalesce: no stage runs all 64
    // shuffle partitions (7 jobs and 19 tasks on 4 cores; cached, over 128).
    assert(work.jobs >= 1 && work.jobs <= 8 && work.tasks < 64, s"Q1 ran $work")
  }

  test("QueryEngine.run caches nothing") {
    Seq(objs, cams, roadsDf).foreach(_.count())
    assert(persistedBy {
      for (query <- Seq(Queries.q1, Queries.q5, Queries.q9))
        QueryEngine.run(spark, query, objs, cams, roadsDf, fps)
    }.isEmpty)
  }

  test("getObjects reads a three-object query's rows once") {
    val c1 = ObjRef("c1"); val c2 = ObjRef("c2"); val p = ObjRef("p")
    val pred = Pred.and(TypeIs(c1, Set("car")), TypeIs(c2, Set("car")), TypeIs(p, Set("pedestrian")),
                        DistanceLt(CamRef, c1, 50.0), DistanceLt(CamRef, c2, 50.0),
                        DistanceLt(CamRef, p, 50.0))
    val rows = QueryEngine.run(spark, q("tq13", pred), objs, cams, roadsDf, fps).rows
    val got  = OutputComposer.getObjects(rows, objs)
    // The engine's own plan holds the two frame-aligned self-joins; the
    // composer adds no union, no sort-merge join and no second copy.
    val ops = operators(got)
    assert(!ops.exists(_.isInstanceOf[UnionExec]), ops.map(_.nodeName).toString)
    assert(ops.count(_.isInstanceOf[SortMergeJoinExec]) === 2, ops.map(_.nodeName).toString)
    // Same samples, in the same columns, as a union of one select per
    // object column joined back to the samples.
    val matched = Seq("c1_oid", "c2_oid", "p_oid")
      .map(c => rows.select(col("sceneId"), col(c).as("oid"))).reduce(_ union _).distinct()
    val union = objs.select("sceneId", "frameIdx", "oid", "otype", "x", "y")
      .join(matched, Seq("sceneId", "oid"))
    assert(got.columns.toSeq === union.columns.toSeq)
    val gotRows = got.collect().map(_.toString).sorted.toSeq
    assert(gotRows.nonEmpty)
    assert(gotRows === union.collect().map(_.toString).sorted.toSeq)
  }

  test("heading and trajectory predicates under an Or still get headings") {
    val c1 = ObjRef("c1"); val c2 = ObjRef("c2")
    val pred = Pred.and(TypeIs(c1, Set("car")), TypeIs(c2, Set("car")),
                        Or(Seq(Pred.opposite(c1, c2), Stopped(c1))),
                        DistanceLt(CamRef, c1, 50.0), DistanceLt(CamRef, c2, 50.0))
    val res = QueryEngine.run(spark, q("tq16", pred), objs, cams, roadsDf, fps)
    val c1s = res.rows.select("c1_oid").distinct().collect().map(_.getLong(0)).toSet
    assert(c1s === Set(1L, 2L, 4L), "the crossing cars are opposite; the bike-lane car is stopped")
  }

  test("two-object opposite-direction query finds the crossing cars and not the parked one") {
    val c1 = ObjRef("c1"); val c2 = ObjRef("c2")
    val pred = Pred.and(TypeIs(c1, Set("car")), TypeIs(c2, Set("car")),
                        Contains(GeoRef("i", "intersection"), Seq(c1, c2)),
                        Pred.opposite(c1, c2),
                        DistanceLt(CamRef, c1, 50.0), DistanceLt(CamRef, c2, 50.0))
    val res = QueryEngine.run(spark, q("tq3", pred), objs, cams, roadsDf, fps)
    val pairs = res.rows.select("c1_oid", "c2_oid").distinct().collect()
      .map(r => Set(r.getLong(0), r.getLong(1)))
    assert(pairs.nonEmpty, "crossing cars must match")
    assert(pairs.forall(_ === Set(1L, 2L)), s"unexpected pairs ${pairs.toSeq}")
    // Both orderings are returned (c1/c2 are interchangeable roles).
    val frames = res.rows.select("frameIdx").distinct().collect().map(_.getInt(0))
    // Cars overlap inside the intersection while both x in [76.5, 83.5].
    frames.foreach { f =>
      val x1 = 50.0 + 0.8 * f; val x2 = 110.0 - 0.8 * f
      assert(x1 >= 76.4 && x1 <= 83.6 && x2 >= 76.4 && x2 <= 83.6, s"frame $f: $x1 $x2")
    }
  }

  test("heading predicates against the camera work (perpendicular pedestrian)") {
    val person = ObjRef("p")
    val pred = Pred.and(TypeIs(person, Set("pedestrian")),
                        Pred.perpendicular(person, CamRef),
                        DistanceLt(CamRef, person, 50.0))
    val res = QueryEngine.run(spark, q("tq4", pred), objs, cams, roadsDf, fps)
    val oids = res.rows.select("p_oid").distinct().collect().map(_.getLong(0)).toSet
    assert(oids === Set(3L), "the northbound pedestrian is perpendicular to the east-facing camera")
  }

  test("contains with the camera term uses camera coordinates") {
    val c = ObjRef("c")
    // Camera sits on the eastbound lane; require the car on the same lane.
    val pred = Pred.and(TypeIs(c, Set("car")),
                        Contains(GeoRef("l", "lane"), Seq(CamRef, c)),
                        DistanceLt(CamRef, c, 50.0))
    val res  = QueryEngine.run(spark, q("tq5", pred), objs, cams, roadsDf, fps)
    val oids = res.rows.select("c_oid").distinct().collect().map(_.getLong(0)).toSet
    assert(oids === Set(1L), s"only the eastbound car shares the camera's lane, got $oids")
  }

  test("stopped query finds the bike-lane car (Q10 shape)") {
    val c = ObjRef("c")
    val pred = Pred.and(TypeIs(c, Set("car")),
                        Contains(GeoRef("b", "bikeLane"), Seq(c)),
                        Stopped(c),
                        DistanceLt(CamRef, c, 50.0))
    val res  = QueryEngine.run(spark, q("tq6", pred), objs, cams, roadsDf, fps)
    val oids = res.rows.select("c_oid").distinct().collect().map(_.getLong(0)).toSet
    assert(oids === Set(4L), s"got $oids")
  }

  test("rowsExamined scales with the number of object refs") {
    val c1 = ObjRef("c1"); val c2 = ObjRef("c2")
    val single = QueryEngine.run(spark, q("tq7",
      Pred.and(TypeIs(c1, Set("car")), DistanceLt(CamRef, c1, 50.0))), objs, cams, roadsDf, fps)
    val double = QueryEngine.run(spark, q("tq8",
      Pred.and(TypeIs(c1, Set("car")), TypeIs(c2, Set("car")),
               DistanceLt(CamRef, c1, 50.0), DistanceLt(CamRef, c2, 50.0),
               Pred.opposite(c1, c2))), objs, cams, roadsDf, fps)
    assert(double.rowsExamined > single.rowsExamined)
  }

  test("generated SQL uses the registered spatial functions and temporal join keys") {
    val person = ObjRef("p")
    val pred = Pred.and(TypeIs(person, Set("pedestrian")),
                        Contains(GeoRef("i", "intersection"), Seq(person)),
                        DistanceLt(CamRef, person, 50.0))
    val res = QueryEngine.run(spark, q("tq9", pred), objs, cams, roadsDf, fps)
    assert(res.sql.contains("st_contains("))
    assert(res.sql.contains("sqrt((cam.x - p.x) * (cam.x - p.x) + (cam.y - p.y) * (cam.y - p.y)) < 50.0"))
    assert(res.sql.contains("cam.sceneId = p.sceneId") || res.sql.contains("cam.sceneId"))
  }

  test("the engine's SQL runs no custom expression but the exact containment test") {
    for (query <- Queries.all) {
      val plan   = QueryEngine.run(spark, query, objs, cams, roadsDf, fps).rows.queryExecution.optimizedPlan
      val custom = plan.flatMap(_.expressions.flatMap(_.collect { case e: CodegenFallback => e }))
      assert(custom.forall(_.isInstanceOf[StContainsExact]),
             s"${query.name}: ${custom.map(_.prettyName).distinct}")
    }
    // Spark's own `st_*` functions (st_srid, st_asbinary, ...) are not ours.
    val spatial = spark.sessionState.functionRegistry.listFunction()
      .filterNot(FunctionRegistry.builtin.functionExists).map(_.funcName)
      .filter(n => n.startsWith("st_") || n == "heading_diff").toSet
    assert(spatial === Set("st_contains", "st_contains_exact"))
  }

  test("a distance bound is Euclidean: 3-4-5 and a sweep") {
    val c = ObjRef("c")
    def matched(o: DataFrame, cs: DataFrame, p: Pred): Set[Int] =
      frames(QueryEngine.run(spark, q("tq-dist", Pred.and(TypeIs(c, Set("car")), p)), o, cs, roadsDf, fps))
    val (o345, c345) = perFrame(Seq((3.0, 4.0, None)), Seq((0.0, 0.0, 0.0)))
    assert(Vec2(0, 0).dist(Vec2(3, 4)) === 5.0)
    assert(matched(o345, c345, DistanceLt(CamRef, c, 5.0)).isEmpty, "5 < 5")
    assert(matched(o345, c345, DistanceLt(c, CamRef, 5.0)).isEmpty, "5 < 5")
    assert(matched(o345, c345, DistanceLt(CamRef, c, 5.001)) === Set(0))
    assert(matched(o345, c345, DistanceLt(c, CamRef, 5.001)) === Set(0))

    val cars  = (0 until 200).map(i => (Rng.hashIn(-60, 60, i, 1), Rng.hashIn(-60, 60, i, 2), None))
    val poses = (0 until 200).map(i => (Rng.hashIn(-10, 10, i, 3), Rng.hashIn(-10, 10, i, 4), 0.0))
    val (o, cs) = perFrame(cars, poses)
    val expected = cars.indices.filter { i =>
      Vec2(poses(i)._1, poses(i)._2).dist(Vec2(cars(i)._1, cars(i)._2)) < 50.0
    }.toSet
    assert(expected.nonEmpty && expected.size < cars.size)
    assert(matched(o, cs, DistanceLt(CamRef, c, 50.0)) === expected)
  }

  test("heading bands match Heading.diff exactly, edges too") {
    val edges  = Seq(0.0, 30.0, 60.0, 120.0, 150.0, 180.0)
    val random = (0 until 200).map(i => (Rng.hashIn(-720, 720, i, 7), Rng.hashIn(-720, 720, i, 8)))
    // Each band edge reached over whole turns, from bases whose sums round,
    // and one ulp either side of it.
    val onEdges   = for (e <- edges; k <- -2 to 1; b <- Seq(0.0, 0.1, 275.3)) yield (b + e + 360.0 * k, b)
    val nearEdges = edges.flatMap(e => Seq((math.nextUp(e), 0.0), (math.nextDown(e), 0.0), (-e, 1e-13), (-1e-15, e)))
    val pairs = random ++ onEdges ++ nearEdges
    edges.foreach(e => assert(pairs.exists { case (a, b) => Heading.diff(a, b) == e }, s"no pair at $e"))
    val (o, cs) = perFrame(pairs.map { case (a, _) => (0.0, 0.0, Some(a)) }, pairs.map { case (_, b) => (0.0, 0.0, b) })
    val c = ObjRef("c")
    for (band <- Seq(Pred.sameDirection _, Pred.perpendicular _, Pred.opposite _);
         (a, b) <- Seq[(Term, Term)]((c, CamRef), (CamRef, c))) {
      val atom @ HeadingDiffBetween(_, _, lo, hi) = band(a, b)
      val got = frames(QueryEngine.run(spark, q("tq-heading", Pred.and(TypeIs(c, Set("car")), atom)),
                                       o, cs, roadsDf, fps))
      val expected = pairs.indices.filter { i =>
        val d = Heading.diff(pairs(i)._1, pairs(i)._2)
        d >= lo && d <= hi
      }.toSet
      val wrong = ((got diff expected) ++ (expected diff got)).map(i => (pairs(i), Heading.diff(pairs(i)._1, pairs(i)._2)))
      assert(got === expected, s"$atom: $wrong")
    }
  }

  test("a null heading never matches a heading predicate") {
    // The parked car (oid 4) has no heading; every other object has one.
    val o1 = ObjRef("o1"); val o2 = ObjRef("o2")
    def oids(p: Pred): Set[Long] = {
      val rows = QueryEngine.run(spark, q("tq-null", p), objs, cams, roadsDf, fps).rows
      rows.columns.filter(_.endsWith("_oid")).flatMap(n => rows.select(n).collect().map(_.getLong(0))).toSet
    }
    assert(oids(HeadingDiffBetween(o1, CamRef, 0.0, 180.0)) === Set(1L, 2L, 3L, 5L))
    assert(oids(HeadingDiffBetween(CamRef, o1, 0.0, 180.0)) === Set(1L, 2L, 3L, 5L))
    assert(oids(HeadingDiffBetween(o1, o2, 0.0, 180.0)) === Set(1L, 2L, 3L, 5L))
  }

  test("engine results are deterministic") {
    val person = ObjRef("p")
    val pred = Pred.and(TypeIs(person, Set("pedestrian")),
                        Contains(GeoRef("i", "intersection"), Seq(person)),
                        DistanceLt(CamRef, person, 50.0))
    val a = QueryEngine.run(spark, q("tq10", pred), objs, cams, roadsDf, fps)
      .rows.orderBy("frameIdx").collect().map(_.toString)
    val b = QueryEngine.run(spark, q("tq11", pred), objs, cams, roadsDf, fps)
      .rows.orderBy("frameIdx").collect().map(_.toString)
    assert(a.sameElements(b))
  }
}
