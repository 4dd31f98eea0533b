package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.{PlanConfig, VideoProcessor}
import repro.sflow.{Queries, Query}
import repro.track.Metrics
import repro.video.CostModel

/** One (query, setup) ablation measurement (§7.2). Runtimes are modelled
  * (CostModel); prune fractions and AssA are measured.
  */
final case class AblationRow(query: String, setup: String,
                             videoMsPerVideo: Double, speedup: Double,
                             prunedFrames: Double, prunedDets: Double, assA: Double)

/** The §7.2 ablation: plans SB (baseline), S1 (RVP), S2 (OTP), S3 (GE),
  * S4 (EFS), S5 (RVP+OTP+GE), S6 (all) over Q1–Q4. AssA of each setup is
  * computed against SB's tracks, excluding detections on RVP-pruned
  * frames (they reflect the user's predicate, not tracking damage).
  * Each query's seven setups share one scene pass, and the scoring runs
  * on the driver, over the tracks and kept frames the pass left there.
  */
object AblationExperiment {

  val Setups: Seq[(String, PlanConfig)] = Seq(
    "SB" -> PlanConfig.baseline,
    "S1" -> PlanConfig(rvp = true, otp = false, geom3d = false, efs = false),
    "S2" -> PlanConfig(rvp = false, otp = true, geom3d = false, efs = false),
    "S3" -> PlanConfig(rvp = false, otp = false, geom3d = true, efs = false),
    "S4" -> PlanConfig(rvp = false, otp = false, geom3d = false, efs = true),
    "S5" -> PlanConfig(rvp = true, otp = true, geom3d = true, efs = false),
    "S6" -> PlanConfig.all,
  )

  val DefaultQueries: Seq[Query] = Seq(Queries.q1, Queries.q2, Queries.q3, Queries.q4)

  def run(spark: SparkSession, ds: Dataset,
          queries: Seq[Query] = DefaultQueries): Seq[AblationRow] =
    queries.flatMap { q =>
      val results = Setups.map(_._1).zip(VideoProcessor.runAll(
        spark, ds.frames, ds.gtStates, ds.net, Setups.map { case (_, cfg) => q -> cfg }, ds.fps))
      val sb   = results.find(_._1 == "SB").get._2
      val sbMs = CostModel.videoMs(sb.stats)

      results.map { case (name, res) =>
        val ms = CostModel.videoMs(res.stats)
        val assa = (sb.tracks, res.tracks) match {
          case (Some(gt), Some(pr)) if name != "SB" =>
            // Evaluation universe: SB tracks on frames this setup kept
            // after RVP (§7.2.2's exclusion).
            val kept = res.kept.toSet
            Metrics.assA(gt.filter(r => kept((r.sceneId, r.frameIdx))), pr)
          case _ => 1.0
        }
        AblationRow(q.name, name,
                    videoMsPerVideo = ms / ds.nVideos,
                    speedup = sbMs / ms,
                    prunedFrames = res.stats.prunedFrameFraction,
                    prunedDets = res.stats.prunedDetFraction,
                    assA = assa)
      }
    }
}
