package repro.catalyst

import org.apache.spark.sql.catalyst.expressions.{Add, And, ArrayMax, ArrayMin, Expression, GreaterThanOrEqual, LessThanOrEqual, Literal, Subtract}
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.catalyst.rules.Rule
import repro.geom.Polygon

/** Catalyst optimizer rule (injected via
  * `spark.experimental.extraOptimizations`): rewrite every
  * `st_contains(xs, ys, x, y)` into
  *
  * {{{ x >= min(xs) - eps AND x <= max(xs) + eps
  *     AND y >= min(ys) - eps AND y <= max(ys) + eps
  *     AND st_contains_exact(xs, ys, x, y) }}}
  *
  * The cheap bounding-box conjuncts short-circuit the O(vertices)
  * ray-cast for the overwhelmingly common non-matching join candidates —
  * the Spark analogue of the spatial index MobilityDB provides the
  * paper's Movable-Objects Query Engine (§5.2.3). The box is widened by
  * `Polygon.Eps`, the exact test's boundary tolerance, so it admits every
  * point the exact test accepts.
  *
  * Idempotent: the rewrite produces `StContainsExact`, which this rule
  * never matches. Only deterministic argument expressions are rewritten
  * (they get duplicated across conjuncts).
  */
object SpatialPrefilterRule extends Rule[LogicalPlan] {
  override def apply(plan: LogicalPlan): LogicalPlan = plan.transformAllExpressions {
    case StContains(xs, ys, x, y)
        if Seq(xs, ys, x, y).forall(_.deterministic) =>
      val eps = Literal(Polygon.Eps)
      def within(v: Expression, vs: Expression): Expression =
        And(GreaterThanOrEqual(v, Subtract(ArrayMin(vs), eps)), LessThanOrEqual(v, Add(ArrayMax(vs), eps)))
      And(And(within(x, xs), within(y, ys)), StContainsExact(xs, ys, x, y))
  }
}
