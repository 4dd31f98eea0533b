package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.{OutputComposer, PlanConfig, SpatialyzeWorld}
import repro.sflow.Queries

/** One Table 1 query run end to end: matches, snippets, the modelled
  * workflow runtime and the measured wall time of `observe()` through the
  * count of its rows.
  */
final case class QueryRow(query: String, description: String, matches: Long, snippets: Int,
                          modeledS: Double, wallS: Double)

/** Table 1: the ten evaluation queries through the build–filter–observe
  * workflow with every applicable optimization; Q10 runs on the aerial
  * dataset as Q10a.
  */
object QueriesExperiment {
  def run(spark: SparkSession, nuscenes: Dataset, sky: Dataset): Seq[QueryRow] =
    Queries.all.map { q0 =>
      val (ds, q) = if (q0.name == "Q10") (sky, Queries.q10Aerial) else (nuscenes, q0)
      val world = new SpatialyzeWorld(spark, ds.fps)
        .addGeogConstructs(ds.net).addVideo(ds.frames, ds.gtStates).filter(q.pred)
      // observe() only plans the query; the first action on its rows runs it.
      val t0      = System.nanoTime()
      val res     = world.observe(PlanConfig.all, q.name)
      val matches = res.rows.count()
      val wallS   = (System.nanoTime() - t0) / 1e9
      QueryRow(q0.name, q0.description, matches, OutputComposer.snippets(res.rows).size,
               res.workflowMs / 1000.0, wallS)
    }
}
