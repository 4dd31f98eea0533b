package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core.VideoProcessor
import repro.geom.Vec2
import repro.sflow.{Analyzer, Pred, Query}
import repro.video.{CostModel, Det3dRow, Estimators, SimDetector}
import repro.world.{FrameRow, RoadNetwork}

/** Result of one EVA query execution. */
final case class EvaRun(query: String, modeledMs: Double, resultFrames: Long)

/** EVA stand-in (§7.1.1): a frame-by-frame VDBMS with materialized-UDF
  * caching. EVA evaluates predicates per frame (no tracking), runs its
  * UDFs on every frame (no geospatial pruning), and — run in series
  * without resets, as the paper does — reuses the materialized object
  * detector outputs from the first query. The monocular-depth UDF is
  * re-invoked per query (its call signature differs per predicate), which
  * is what keeps EVA 2–7.3× slower than Spatialyze on Q5–Q7 despite the
  * cache. The detector runs in the scene pass, once per series: its
  * per-frame detections stay persisted across the series' queries and are
  * released when the series ends.
  */
object EvaSim {

  /** Execute detection-only queries (Q5–Q8 shape) in series the EVA way. */
  def run(frames: DataFrame, gtStates: DataFrame, net: RoadNetwork, queries: Seq[Query]): Seq[EvaRun] = {
    // The materialized detector output: one vector of detections per frame.
    val dets = VideoProcessor.byScene(frames, gtStates) { (_, fs, states) =>
      fs.map(fr => SimDetector.detectFrame(fr, states.getOrElse(fr.frameIdx, Nil)))
    }.flatMap(identity).persist()
    try queries.zipWithIndex.map { case (query, i) =>
      // Frame-by-frame evaluation: each frame's count of kept detections, in
      // one Spark job (the first also fills the cache).
      val keep    = keeps(net, query)
      val counts  = dets.map(_.count(d => keep(d.frame, Estimators.mlOne(d)))).collect()
      val nFrames = counts.length.toLong
      val minMatches   = query.requirements.objRefs.size
      val resultFrames = counts.count(n => n > 0 && n >= minMatches).toLong

      val detectorMs =
        if (i > 0) CostModel.EvaCacheReadMs * nFrames
        else (CostModel.DecodeMs + CostModel.YoloMs) * nFrames
      val ms = detectorMs + CostModel.MonodepthMs * nFrames + CostModel.EvaFrameEvalMs * nFrames

      EvaRun(query.name, ms, resultFrames)
    } finally dets.unpersist()
  }

  /** Which located detections of a frame `query` keeps: the (type,
    * containment, distance from the frame's camera) filter. A frame
    * qualifies when it keeps one detection per object reference.
    */
  def keeps(net: RoadNetwork, query: Query): (FrameRow, Det3dRow) => Boolean = {
    val req   = query.requirements
    val types = req.typesOfInterest.getOrElse(Set.empty)
    val geoTypes = req.rvpTargets.map(_._1).distinct
    val polysByType = geoTypes.map(t => t -> net.ofType(t).map(_.polygon).toArray).toMap
    // A detection may stand for any object reference, so it must lie within
    // the loosest of their camera-distance bounds (Q7: the car's 10 m). An
    // object without a bound gets the 50 m default. The distance is the
    // engine's: `Vec2.dist`, the square root of the summed squares.
    val bounds  = Pred.cameraBounds(query.pred)
    val maxDist = req.objRefs.map(bounds.getOrElse(_, Analyzer.DefaultVisibilityDistance))
      .maxOption.getOrElse(Analyzer.DefaultVisibilityDistance)
    (fr, d) => (types.isEmpty || types.contains(d.otype)) &&
      Vec2(fr.camX, fr.camY).dist(Vec2(d.estX, d.estY)) < maxDist &&
      (geoTypes.isEmpty || geoTypes.exists(t => polysByType(t).exists(_.contains(d.estX, d.estY))))
  }
}
