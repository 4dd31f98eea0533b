package repro.catalyst

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.FunctionIdentifier
import org.apache.spark.sql.catalyst.expressions.{Expression, QuaternaryExpression}
import org.apache.spark.sql.catalyst.expressions.codegen.CodegenFallback
import org.apache.spark.sql.catalyst.util.ArrayData
import org.apache.spark.sql.types.{BooleanType, DataType}
import repro.geom.Polygon

/** `geom.Polygon.contains` over a polygon's parallel coordinate arrays and
  * a ground point: the one containment test, shared by both expressions.
  */
sealed abstract class PolygonContains extends QuaternaryExpression with CodegenFallback {
  override def dataType: DataType = BooleanType
  override def nullable: Boolean  = true

  private def toD(a: Any): Double = a match {
    case d: Double => d
    case f: Float  => f.toDouble
    case n: Number => n.doubleValue()
    case other     => throw new IllegalArgumentException(s"not numeric: $other")
  }

  override def nullSafeEval(xs: Any, ys: Any, x: Any, y: Any): Any =
    Polygon.contains(xs.asInstanceOf[ArrayData].toDoubleArray(),
                     ys.asInstanceOf[ArrayData].toDoubleArray(), toD(x), toD(y))
}

/** `st_contains(xs, ys, x, y)` — polygon contains ground point. Rewritten
  * by SpatialPrefilterRule into a bbox check plus `StContainsExact`;
  * evaluable as-is when the rule has not run.
  */
case class StContains(first: Expression, second: Expression, third: Expression, fourth: Expression)
    extends PolygonContains {
  override def prettyName: String = "st_contains"

  override protected def withNewChildrenInternal(
      a: Expression, b: Expression, c: Expression, d: Expression): Expression = copy(a, b, c, d)
}

/** The exact-test half of a rewritten `st_contains`, also callable from
  * SQL as `st_contains_exact`. The prefilter rule never matches it, which
  * makes the rewrite idempotent.
  */
case class StContainsExact(first: Expression, second: Expression, third: Expression, fourth: Expression)
    extends PolygonContains {
  override def prettyName: String = "st_contains_exact"

  override protected def withNewChildrenInternal(
      a: Expression, b: Expression, c: Expression, d: Expression): Expression = copy(a, b, c, d)
}

/** Registers the containment functions and the prefilter optimizer rule
  * on a session, once: a session that already has them keeps them — the
  * paper's "spatial index" role in the metadata store, realized through
  * Catalyst extension points. Distance and heading arithmetic need no
  * function of their own: the engine compiles them to Spark's built-ins.
  */
object SpatialFunctions {
  private val builders: Seq[(String, Seq[Expression] => Expression)] = Seq(
    "st_contains"       -> (e => StContains(e(0), e(1), e(2), e(3))),
    "st_contains_exact" -> (e => StContainsExact(e(0), e(1), e(2), e(3))))

  def register(spark: SparkSession): Unit = synchronized {
    val reg = spark.sessionState.functionRegistry
    builders.foreach { case (name, build) =>
      if (!reg.functionExists(FunctionIdentifier(name)))
        reg.createOrReplaceTempFunction(name, build, "scala_udf")
    }
    if (!spark.experimental.extraOptimizations.contains(SpatialPrefilterRule))
      spark.experimental.extraOptimizations =
        spark.experimental.extraOptimizations :+ SpatialPrefilterRule
  }
}
