package repro.catalyst

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.geom.{Polygon, Rng}

class SpatialExpressionsSpec extends SparkSpec {

  private def setupView(): Unit = {
    SpatialFunctions.register(spark)
    val schema = StructType(Seq(
      StructField("id", LongType),
      StructField("xs", ArrayType(DoubleType, containsNull = false)),
      StructField("ys", ArrayType(DoubleType, containsNull = false)),
      StructField("px", DoubleType),
      StructField("py", DoubleType)))
    val rows = (0 until 300).map { i =>
      val poly = Polygon.rect(Rng.hashIn(-40, 40, i, 1), Rng.hashIn(-40, 40, i, 2),
                              Rng.hashIn(41, 80, i, 3), Rng.hashIn(41, 80, i, 4))
      Row(i.toLong, poly.xs.toSeq, poly.ys.toSeq,
          Rng.hashIn(-60, 100, i, 5), Rng.hashIn(-60, 100, i, 6))
    }
    spark.createDataFrame(spark.sparkContext.parallelize(rows), schema)
      .createOrReplaceTempView("polys")
  }

  test("st_contains agrees with geom.Polygon on 300 random cases") {
    setupView()
    val out = spark.sql("SELECT id, xs, ys, px, py, st_contains(xs, ys, px, py) AS c FROM polys")
      .collect()
    assert(out.length === 300)
    out.foreach { r =>
      val poly = Polygon(r.getSeq[Double](1).toArray, r.getSeq[Double](2).toArray)
      val expected = poly.contains(r.getDouble(3), r.getDouble(4))
      assert(r.getBoolean(5) === expected, s"row ${r.getLong(0)}")
    }

    // Fixed boundary cases, all inside: a point on each of the four edges
    // of a rectangle, a vertex, and a point 0.5e-9 outside the right edge.
    import spark.implicits._
    val rect  = Polygon.rect(-3.5, 76.5, 3.5, 83.5)
    val cases = Seq(0.0 -> 76.5, 3.5 -> 80.0, 0.0 -> 83.5, -3.5 -> 80.0, 3.5 -> 83.5, (3.5 + 0.5e-9) -> 80.0)
    cases.map { case (x, y) => (rect.xs.toSeq, rect.ys.toSeq, x, y) }.toDF("xs", "ys", "px", "py")
      .createOrReplaceTempView("boundary_points")
    spark.sql("""SELECT px, py, st_contains(xs, ys, px, py), st_contains_exact(xs, ys, px, py)
                 FROM boundary_points""").collect().foreach { r =>
      val (px, py) = (r.getDouble(0), r.getDouble(1))
      assert(rect.contains(px, py), s"Polygon.contains($px, $py)")
      assert(r.getBoolean(2), s"st_contains($px, $py)")
      assert(r.getBoolean(3), s"st_contains_exact($px, $py)")
    }
  }

  test("st_contains_exact matches st_contains") {
    setupView()
    val diff = spark.sql(
      """SELECT count(*) AS n FROM polys
         WHERE st_contains(xs, ys, px, py) <> st_contains_exact(xs, ys, px, py)""").collect()(0).getLong(0)
    assert(diff === 0L)
  }

  test("st_contains propagates nulls") {
    SpatialFunctions.register(spark)
    val r = spark.sql(
      "SELECT st_contains(array(0.0D,1.0D,0.0D), array(0.0D,0.0D,1.0D), CAST(NULL AS DOUBLE), 0.5D) AS c")
      .collect()(0)
    assert(r.isNullAt(0))
  }

  test("the prefilter rule rewrites st_contains into bbox + exact in the optimized plan") {
    setupView()
    val df   = spark.sql("SELECT id FROM polys WHERE st_contains(xs, ys, px, py)")
    val plan = df.queryExecution.optimizedPlan.toString()
    assert(plan.contains("st_contains_exact"), s"no exact test in plan:\n$plan")
    assert(!plan.contains("st_contains(xs"), "unrewritten st_contains left in plan")
    assert(plan.contains("array_min") || plan.contains("ArrayMin"), s"no bbox prefilter in plan:\n$plan")
  }

  test("the rewrite preserves results exactly") {
    setupView()
    val withRule = spark.sql("SELECT id FROM polys WHERE st_contains(xs, ys, px, py)")
      .collect().map(_.getLong(0)).sorted
    val exactOnly = spark.sql("SELECT id FROM polys WHERE st_contains_exact(xs, ys, px, py)")
      .collect().map(_.getLong(0)).sorted
    assert(withRule.sameElements(exactOnly))
    // And against the driver-side geometry reference:
    val reference = spark.sql("SELECT id, xs, ys, px, py FROM polys").collect()
      .filter { r =>
        Polygon(r.getSeq[Double](1).toArray, r.getSeq[Double](2).toArray)
          .contains(r.getDouble(3), r.getDouble(4))
      }
      .map(_.getLong(0)).sorted
    assert(withRule.sameElements(reference))
  }

  test("rule registration is idempotent") {
    SpatialFunctions.register(spark)
    SpatialFunctions.register(spark)
    val n = spark.experimental.extraOptimizations.count(_ == SpatialPrefilterRule)
    assert(n === 1)
  }

  test("a second query keeps the session's registered functions") {
    import org.apache.spark.sql.catalyst.FunctionIdentifier
    import repro.core.QueryEngine
    import repro.sflow.Queries
    import repro.world.{RoadNetwork, WorldParams}
    val reg   = spark.sessionState.functionRegistry
    val names = Seq("st_contains", "st_contains_exact")
    // Builder and expression info together: re-registering replaces both.
    def registered = names.map { n =>
      val id = FunctionIdentifier(n)
      (reg.lookupFunctionBuilder(id).get, reg.lookupFunction(id).get)
    }
    val objs  = repro.core.WindowReference.withFacts(spark.createDataFrame(Seq((0L, 0, 1L, "car", 0.0, 0.0)))
      .toDF("sceneId", "frameIdx", "oid", "otype", "x", "y"))
    val cams  = spark.createDataFrame(Seq((0L, 0, 0.0, 0.0, 0.0))).toDF("sceneId", "frameIdx", "x", "y", "heading")
    val roads = RoadNetwork.grid(WorldParams.nuscenes(nScenes = 1).grid).toDF(spark)
    QueryEngine.run(spark, Queries.q6, objs, cams, roads, 12.0)
    val first = registered
    QueryEngine.run(spark, Queries.q6, objs, cams, roads, 12.0)
    first.zip(registered).zip(names).foreach { case (((b1, i1), (b2, i2)), n) =>
      assert((b1 eq b2) && (i1 eq i2), s"$n was registered again")
    }
  }

  test("Oracle cross-check: the relational layer above the spatial filter matches DuckDB") {
    setupView()
    // Compute the spatial predicate in Spark, then verify the downstream
    // aggregation relationally against DuckDB over the exported table.
    val flagged = spark.sql(
      """SELECT id, CAST(st_contains(xs, ys, px, py) AS STRING) AS hit FROM polys""")
    val agg = spark.sql(
      """SELECT CAST(st_contains(xs, ys, px, py) AS STRING) AS hit, count(*) AS n
         FROM polys GROUP BY 1""")
    repro.Oracle.assertEquivalent(agg,
      "SELECT hit AS hit, count(*) AS n FROM flagged GROUP BY hit",
      "flagged" -> flagged)
  }
}
