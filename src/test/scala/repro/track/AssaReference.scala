package repro.track

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Test-scope reference: HOTA AssA as the Spark plan `Metrics.assA`
  * replaced (four joins, three aggregations), kept to check the
  * driver-side version against.
  */
object AssaReference {

  /** HOTA Association Accuracy of `pred` tracks against `gt` tracks.
    *
    * For every matched detection c with gt track g and predicted track p:
    * A(c) = |TPA| / (|TPA| + |FNA| + |FPA|) where TPA = matched detections
    * with the same (g, p), FNA = remaining detections of g, FPA = remaining
    * detections of p. AssA = mean of A(c) over matched detections.
    *
    * Both inputs are TrackedRow-shaped DataFrames. The caller restricts
    * `gt` to the evaluation universe (e.g. excluding RVP-pruned frames,
    * as §7.2.2 does).
    */
  def assA(spark: SparkSession, gt: DataFrame, pred: DataFrame): Double = {
    val g = gt.select(col("sceneId"), col("did"), col("trackId").as("gtTrack"))
    val p = pred.select(col("sceneId"), col("did"), col("trackId").as("prTrack"))

    val matched = g.join(p, Seq("sceneId", "did"))

    val tpa = matched.groupBy("sceneId", "gtTrack", "prTrack").agg(count("*").as("tpa"))
    val gtN = g.groupBy("sceneId", "gtTrack").agg(count("*").as("gtN"))
    val prN = p.groupBy("sceneId", "prTrack").agg(count("*").as("prN"))

    val perDet = matched
      .join(tpa, Seq("sceneId", "gtTrack", "prTrack"))
      .join(gtN, Seq("sceneId", "gtTrack"))
      .join(prN, Seq("sceneId", "prTrack"))
      .withColumn("a", col("tpa") / (col("gtN") + col("prN") - col("tpa")))

    val row = perDet.agg(avg("a").as("assa")).collect()(0)
    if (row.isNullAt(0)) 0.0 else row.getDouble(0)
  }
}
