package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.video.{DetRow, Estimators, SimDetector}
import repro.world.{FrameRow, GtStateRow}

/** The detector and the ML depth estimator as whole-DataFrame operators:
  * a join of every frame with its latent states, then one row per
  * detection. `DataFrameChainReference` and the differential specs compare
  * the scene pass against them.
  */
object DataFrameDetector {

  /** Run the detector over every (frame, object) pair of the given frames. */
  def detect(spark: SparkSession, frames: DataFrame, gtStates: DataFrame): DataFrame = {
    import spark.implicits._
    val f = frames.as[FrameRow].as("f")
    val g = gtStates.as[GtStateRow].as("g")
    f.joinWith(g, col("f.sceneId") === col("g.sceneId") && col("f.frameIdx") === col("g.frameIdx"))
      .flatMap { case (fr, s) => SimDetector.detectOne(fr, s) }
      .toDF()
  }

  def ml(spark: SparkSession, dets: DataFrame): DataFrame = {
    import spark.implicits._
    dets.as[DetRow].map(Estimators.mlOne(_)).toDF()
  }
}
