package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.VideoProcessor.{HeadingLag, MinHeadingDistM, StoppedMaxDispM, StoppedMinSamples,
                                  TurnLeftMinDeg}

/** Reference for the facts the scene pass derives per sample: the query
  * engine's former window code, which computed them over the whole
  * `objs` table. `VideoProcessorEquivalenceSpec` checks the pass against
  * it, and engine tests build hand-made `objs` with it.
  */
object WindowReference {

  /** A derived heading (degrees CCW from +x) from the track geometry. */
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

  /** `objs` (sceneId, frameIdx, oid, otype, x, y) with the four columns
    * the query engine reads: heading, turnleft, stopped and nFrame, the
    * number of samples in the frame.
    */
  def withFacts(objs: DataFrame): DataFrame = {
    val enriched = enrich(objs)
    val perFrame = objs.groupBy("sceneId", "frameIdx").agg(count("*").cast("int").as("nFrame"))
    enriched.join(aggregates(enriched), Seq("sceneId", "oid"))
      .join(perFrame, Seq("sceneId", "frameIdx"))
      .select("sceneId", "frameIdx", "oid", "otype", "x", "y", "heading", "turnleft", "stopped", "nFrame")
  }
}
