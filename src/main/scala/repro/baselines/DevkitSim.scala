package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core.QueryEngine
import repro.sflow.Query
import repro.video.CostModel

/** nuScenes-devkit-style evaluation of one query against already-processed
  * Movable Objects.
  */
final case class DevkitRun(query: String, devkitMs: Double, spatialyzeMs: Double,
                           devkitRows: Double, spatialyzeRows: Long, oom: Boolean) {
  def speedup: Double = if (oom) Double.PositiveInfinity else devkitMs / spatialyzeMs
}

/** nuScenes devkit stand-in (§7.1.3): queries the Movable-Objects data
  * through Python-loop materialization — for every frame, every k-tuple
  * of annotations is combined with EVERY construct of the referenced
  * type (no spatial index, no pre-generated columns) and checked with
  * per-row linear algebra. The candidate count is measured from the same
  * data the real engine queries; runtime = candidates × PyPerRowMs.
  * Materializing more than DevkitOomRows combinations reproduces the
  * paper's Q4 out-of-memory failure.
  *
  * Spatialyze's Movable-Objects Query Engine cost = its (temporally
  * aligned, bbox-prefiltered) candidates × SqlPerRowMs.
  */
object DevkitSim {

  /** `objs` as `VideoProcessor.run` emits it: its `nFrame` column gives the
    * per-frame tuple counts. Both candidate counts scale the same
    * Σ_f n_f^k, taken in one Spark job.
    */
  def compare(query: Query, objs: DataFrame, roadCountsByType: Map[String, Long]): DevkitRun = {
    val geoFactor = query.requirements.geoRefs
      .map(g => roadCountsByType.getOrElse(g.geoType, 1L).toDouble)
      .product

    val tuples         = QueryEngine.sumNk(objs, query)
    val devkitRows     = tuples * geoFactor
    val spatialyzeRows = QueryEngine.rowsExamined(query, tuples)
    val oom            = devkitRows > CostModel.DevkitOomRows
    DevkitRun(query.name,
              devkitMs = devkitRows * CostModel.PyPerRowMs,
              spatialyzeMs = spatialyzeRows * CostModel.SqlPerRowMs,
              devkitRows = devkitRows, spatialyzeRows = spatialyzeRows, oom = oom)
  }
}
