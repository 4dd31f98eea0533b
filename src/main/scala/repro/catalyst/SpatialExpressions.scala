package repro.catalyst

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.{FunctionIdentifier, InternalRow}
import org.apache.spark.sql.catalyst.expressions.{BinaryExpression, Expression, QuaternaryExpression}
import org.apache.spark.sql.catalyst.expressions.codegen.CodegenFallback
import org.apache.spark.sql.catalyst.util.ArrayData
import org.apache.spark.sql.types.{BooleanType, DataType, DoubleType}
import repro.geom.{Heading, Polygon}

/** Shared evaluation helper for the spatial expressions. */
private[catalyst] object SpatialEval {
  def toD(a: Any): Double = a match {
    case d: Double => d
    case f: Float  => f.toDouble
    case n: Number => n.doubleValue()
    case other     => throw new IllegalArgumentException(s"not numeric: $other")
  }
}

/** `geom.Polygon.contains` over a polygon's parallel coordinate arrays and
  * a ground point: the one containment test, shared by both expressions.
  */
sealed abstract class PolygonContains extends QuaternaryExpression with CodegenFallback {
  override def dataType: DataType = BooleanType
  override def nullable: Boolean  = true

  override def nullSafeEval(xs: Any, ys: Any, x: Any, y: Any): Any =
    Polygon.contains(xs.asInstanceOf[ArrayData].toDoubleArray(),
                     ys.asInstanceOf[ArrayData].toDoubleArray(),
                     SpatialEval.toD(x), SpatialEval.toD(y))
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

/** `st_distance(x1, y1, x2, y2)` — Euclidean ground-plane distance. */
case class StDistance(x1E: Expression, y1E: Expression, x2E: Expression, y2E: Expression)
    extends QuaternaryExpression with CodegenFallback {
  override def first: Expression  = x1E
  override def second: Expression = y1E
  override def third: Expression  = x2E
  override def fourth: Expression = y2E
  override def dataType: DataType = DoubleType
  override def nullable: Boolean  = true
  override def prettyName: String = "st_distance"

  override def nullSafeEval(x1: Any, y1: Any, x2: Any, y2: Any): Any = {
    val dx = SpatialEval.toD(x1) - SpatialEval.toD(x2)
    val dy = SpatialEval.toD(y1) - SpatialEval.toD(y2)
    math.sqrt(dx * dx + dy * dy)
  }

  override protected def withNewChildrenInternal(
      newFirst: Expression, newSecond: Expression,
      newThird: Expression, newFourth: Expression): Expression =
    copy(x1E = newFirst, y1E = newSecond, x2E = newThird, y2E = newFourth)
}

/** `heading_diff(a, b)` — absolute angular difference in [0, 180]. */
case class HeadingDiffExpr(left: Expression, right: Expression)
    extends BinaryExpression with CodegenFallback {
  override def dataType: DataType = DoubleType
  override def nullable: Boolean  = true
  override def prettyName: String = "heading_diff"

  override def nullSafeEval(a: Any, b: Any): Any =
    Heading.diff(SpatialEval.toD(a), SpatialEval.toD(b))

  override protected def withNewChildrenInternal(newLeft: Expression, newRight: Expression): Expression =
    copy(left = newLeft, right = newRight)
}

/** Registers the spatial functions and the prefilter optimizer rule on a
  * session, once: a session that already has them keeps them — the
  * paper's "spatial index" role in the metadata store, realized through
  * Catalyst extension points.
  */
object SpatialFunctions {
  private val builders: Seq[(String, Seq[Expression] => Expression)] = Seq(
    "st_contains"       -> (e => StContains(e(0), e(1), e(2), e(3))),
    "st_contains_exact" -> (e => StContainsExact(e(0), e(1), e(2), e(3))),
    "st_distance"       -> (e => StDistance(e(0), e(1), e(2), e(3))),
    "heading_diff"      -> (e => HeadingDiffExpr(e(0), e(1))))

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
