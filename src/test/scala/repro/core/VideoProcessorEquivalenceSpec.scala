package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.exp.AblationExperiment
import repro.sflow.{Queries, Query}
import repro.world.{RoadNetwork, WorldGen, WorldParams}

/** The one-pass video processor gives exactly the statistics and rows of
  * the DataFrame-chain reference, plan by plan. That includes the facts
  * the scene pass derives for the query engine: every sample's heading
  * (nulls included), turnleft, stopped and nFrame equal the window
  * reference's, per (sceneId, oid, frameIdx).
  */
class VideoProcessorEquivalenceSpec extends SparkSpec {

  private final class World(p: WorldParams) {
    val net = RoadNetwork.grid(p.grid)
    lazy val frames = WorldGen.frames(spark, p).persist()
    lazy val gt     = WorldGen.gtStates(spark, p).persist()
    def fps: Double = p.fps
  }
  private val nus = new World(WorldParams.nuscenes(nScenes = 3))
  private val sky = new World(WorldParams.sky(nFlights = 2))

  private val setups = AblationExperiment.Setups.toMap

  private def rows(df: DataFrame): Seq[String] = df.collect().map(_.toString).sorted.toSeq

  private def assertSame(w: World, q: Query, setup: String): Unit = {
    val cfg  = setups(setup)
    val pass = VideoProcessor.run(spark, w.frames, w.gt, w.net, q, cfg, w.fps)
    val ref  = DataFrameChainReference.run(spark, w.frames, w.gt, w.net, q, cfg, w.fps)
    val at   = s"${q.name} $setup"
    assert(pass.stats === ref.stats, at)
    assert(pass.objs.dtypes === ref.objs.dtypes, at)
    assert(rows(pass.objs) === rows(ref.objs), at)
    assert(pass.tracked.map(_.dtypes.toSeq) === ref.tracked.map(_.dtypes.toSeq), at)
    assert(pass.tracked.map(rows) === ref.tracked.map(rows), at)
    assert(pass.keptFrames.dtypes === ref.keptFrames.dtypes, at)
    assert(rows(pass.keptFrames) === rows(ref.keptFrames), at)
  }

  Seq(Queries.q1, Queries.q2, Queries.q3, Queries.q4).foreach { q =>
    test(s"${q.name} matches the reference under all 7 setups") {
      setups.keys.toSeq.sorted.foreach(assertSame(nus, q, _))
    }
  }

  test("Q5-Q9 match the reference under SB and S6") {
    Seq(Queries.q5, Queries.q6, Queries.q7, Queries.q8, Queries.q9).foreach { q =>
      Seq("SB", "S6").foreach(assertSame(nus, q, _))
    }
  }

  test("Q10a on sky-lite matches the reference under SB, S1 and S6") {
    Seq("SB", "S1", "S6").foreach(assertSame(sky, Queries.q10Aerial, _))
  }
}
