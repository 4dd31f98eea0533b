package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.sflow.Query
import repro.track.SortTracker
import repro.video.{Det3dRow, DetRow, Estimators, RunStats}
import repro.world.{FrameRow, RoadNetwork}

/** Reference for `VideoProcessorEquivalenceSpec`: the video processor as a
  * chain of whole-DataFrame operators, one Spark stage per operator, with
  * every unit counted by its own action, and the facts the query engine
  * reads derived by `WindowReference`. `VideoProcessor.runAll` must give
  * every plan the same statistics and rows.
  */
object DataFrameChainReference {

  /** The reference's output: `VideoProcessor`'s, as DataFrames. */
  final case class Result(objs: DataFrame, tracked: Option[DataFrame], keptFrames: DataFrame,
                          stats: RunStats)

  def run(spark: SparkSession, frames: DataFrame, gtStates: DataFrame, net: RoadNetwork,
          query: Query, config: PlanConfig, fps: Double): Result = {
    import spark.implicits._
    val req = query.requirements

    val framesTotal = frames.count()

    val rvpApplied = config.rvp && req.rvpTargets.nonEmpty
    val kept =
      if (rvpApplied) {
        val targets = req.rvpTargets.map { case (t, d) => (net.ofType(t).toArray, d) }
        frames.as[FrameRow].filter(RoadVisibilityPruner.keep(_, targets)).toDF()
      } else frames
    val framesAfterRvp = kept.count()

    val dets       = DataFrameDetector.detect(spark, kept, gtStates)
    val detections = dets.count()

    val otpApplied = config.otp && req.typesOfInterest.isDefined
    val detsTyped =
      if (otpApplied) dets.filter(col("otype").isin(req.typesOfInterest.get.toSeq: _*)) else dets
    val detsAfterOtp = detsTyped.count()

    val geomApplied = config.geom3d && req.geomApplicable
    val dets3d =
      if (geomApplied) detsTyped.as[DetRow].map(Estimators.geomOne(_)).toDF()
      else DataFrameDetector.ml(spark, detsTyped)
    val geomDets = if (geomApplied) dets3d.filter(col("method") === "geom").count() else 0L
    val depthFrames =
      (if (geomApplied) dets3d.filter(col("method") === "geom_fallback") else dets3d)
        .select("sceneId", "frameIdx").distinct().count()

    val efsApplied = config.efs && req.efsApplicable
    val trackerInput =
      if (efsApplied) {
        val lanes  = net.segments.filter(_.heading.isDefined).toArray
        val inters = net.ofType("intersection").toArray
        val sampled = kept.as[FrameRow].groupByKey(_.sceneId)
          .cogroup(dets3d.as[Det3dRow].groupByKey(_.sceneId)) { (sid, fIt, dIt) =>
            val byFrame = dIt.toVector.groupBy(_.frameIdx): Map[Int, Seq[Det3dRow]]
            ExitFrameSampler.sampleScene(fIt.toVector.sortBy(_.frameIdx), byFrame, lanes, inters, fps)
              .iterator.map(f => (sid, f))
          }
          .toDF("sceneId", "frameIdx")
        dets3d.join(sampled, Seq("sceneId", "frameIdx"))
      } else dets3d

    val trackerRan = req.needsTracking
    val (tracked, trackerFrames, trackerDets, trackerPairOps) =
      if (trackerRan) {
        val t = trackerInput.as[Det3dRow].groupByKey(_.sceneId)
          .flatMapGroups((_, it) => SortTracker.trackScene(it.toSeq).iterator)
          .toDF()
        val perFrame = trackerInput.groupBy("sceneId", "frameIdx").agg(count("*").as("n"))
        val w        = Window.partitionBy("sceneId").orderBy("frameIdx")
        val pairRow = perFrame
          .withColumn("prev", lag("n", 1).over(w))
          .agg(sum(col("n") * coalesce(col("prev"), lit(0L))).as("pairs"),
               count("*").as("frames"), sum("n").as("dets"))
          .collect()(0)
        (Some(t),
         if (pairRow.isNullAt(1)) 0L else pairRow.getLong(1),
         if (pairRow.isNullAt(2)) 0L else pairRow.getLong(2),
         if (pairRow.isNullAt(0)) 0L else pairRow.getLong(0))
      } else (None, 0L, 0L, 0L)

    val objs = WindowReference.withFacts(tracked match {
      case Some(t) =>
        t.select(col("sceneId"), col("frameIdx"), col("trackId").as("oid"),
                 col("otype"), col("estX").as("x"), col("estY").as("y"))
      case None =>
        dets3d.select(col("sceneId"), col("frameIdx"), col("did").as("oid"),
                      col("otype"), col("estX").as("x"), col("estY").as("y"))
    })

    val stats = RunStats(
      framesTotal = framesTotal, framesAfterRvp = framesAfterRvp,
      detections = detections, detsAfterOtp = detsAfterOtp,
      depthFrames = depthFrames, geomDets = geomDets,
      trackerFrames = trackerFrames, trackerDets = trackerDets,
      trackerPairOps = trackerPairOps, trackerRan = trackerRan,
      rvpApplied = rvpApplied, otpApplied = otpApplied,
      geomApplied = geomApplied, efsApplied = efsApplied)

    Result(objs, tracked, kept.select("sceneId", "frameIdx"), stats)
  }
}
