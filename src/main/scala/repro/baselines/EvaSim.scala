package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.sflow.{Analyzer, CamRef, DistanceLt, Pred, Query}
import repro.video.{CostModel, Estimators, SimDetector}
import repro.world.RoadNetwork

/** Result of one EVA query execution. */
final case class EvaRun(query: String, modeledMs: Double, resultFrames: Long)

/** EVA stand-in (§7.1.1): a frame-by-frame VDBMS with materialized-UDF
  * caching. EVA evaluates predicates per frame (no tracking), runs its
  * UDFs on every frame (no geospatial pruning), and — run in series
  * without resets, as the paper does — reuses the materialized object
  * detector outputs from the first query. The monocular-depth UDF is
  * re-invoked per query (its call signature differs per predicate), which
  * is what keeps EVA 2–7.3× slower than Spatialyze on Q5–Q7 despite the
  * cache.
  */
final class EvaSim(spark: SparkSession) {

  private var detectorMaterialized = false
  private var cachedDets: Option[DataFrame] = None

  /** Execute a detection-only query (Q5–Q8 shape) the EVA way. */
  def run(frames: DataFrame, gtStates: DataFrame, net: RoadNetwork, query: Query): EvaRun = {
    val nFrames = frames.count()

    val dets = cachedDets.getOrElse {
      val d = SimDetector.detect(spark, frames, gtStates).persist()
      d.count()
      cachedDets = Some(d)
      d
    }
    val dets3d = Estimators.ml(spark, dets)

    // Frame-by-frame evaluation: a frame qualifies when the per-frame
    // object multiset satisfies the (type, containment, distance) filter.
    val req   = query.requirements
    val types = req.typesOfInterest.getOrElse(Set.empty)
    val geoTypes = req.rvpTargets.map(_._1).distinct
    val polysByType = geoTypes.map(t => t -> net.ofType(t).map(_.polygon).toArray).toMap
    val minMatches = req.objRefs.size
    // A detection may stand for any object reference, so it must lie within
    // the loosest of their camera-distance bounds (Q7: the car's 10 m). An
    // object without a bound gets the 50 m default.
    val cs = Pred.conjuncts(query.pred)
    val maxDist = req.objRefs.map { o =>
      cs.collect { case DistanceLt(CamRef, `o`, d) => d; case DistanceLt(`o`, CamRef, d) => d }
        .minOption.getOrElse(Analyzer.DefaultVisibilityDistance)
    }.maxOption.getOrElse(Analyzer.DefaultVisibilityDistance)

    import spark.implicits._
    val matching = dets3d.as[repro.video.Det3dRow]
      .filter { d =>
        (types.isEmpty || types.contains(d.otype)) &&
        math.hypot(d.estX - d.camX, d.estY - d.camY) < maxDist &&
        (geoTypes.isEmpty || geoTypes.exists(t => polysByType(t).exists(_.contains(d.estX, d.estY))))
      }
      .groupByKey(d => (d.sceneId, d.frameIdx))
      .count()
      .filter(_._2 >= minMatches)
    val resultFrames = matching.count()

    val detectorMs =
      if (detectorMaterialized) CostModel.EvaCacheReadMs * nFrames
      else (CostModel.DecodeMs + CostModel.YoloMs) * nFrames
    detectorMaterialized = true
    val ms = detectorMs + CostModel.MonodepthMs * nFrames + CostModel.EvaFrameEvalMs * nFrames

    EvaRun(query.name, ms, resultFrames)
  }
}
