package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.exp.AblationExperiment
import repro.sflow.{Queries, Query}
import repro.track.TrackedRow
import repro.world.{RoadNetwork, WorldGen, WorldParams}

/** The one-pass video processor gives exactly the statistics and rows of
  * the DataFrame-chain reference, plan by plan, when one pass runs several
  * plans. That includes the facts the scene pass derives for the query
  * engine: every sample's heading (nulls included), turnleft, stopped and
  * nFrame equal the window reference's, per (sceneId, oid, frameIdx).
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

  /** Run every (query, setup) in one pass and check each plan's output. */
  private def assertSame(w: World, plans: Seq[(Query, String)]): Unit = {
    import spark.implicits._
    val passes = VideoProcessor.runAll(spark, w.frames, w.gt, w.net,
                                       plans.map { case (q, s) => q -> setups(s) }, w.fps)
    assert(passes.size === plans.size)
    plans.zip(passes).foreach { case ((q, setup), pass) =>
      val ref = DataFrameChainReference.run(spark, w.frames, w.gt, w.net, q, setups(setup), w.fps)
      val at  = s"${q.name} $setup"
      assert(pass.stats === ref.stats, at)
      assert(pass.objs.dtypes === ref.objs.dtypes, at)
      assert(rows(pass.objs) === rows(ref.objs), at)
      assert(pass.tracks.map(_.sortBy(_.toString)) ===
             ref.tracked.map(_.as[TrackedRow].collect().toVector.sortBy(_.toString)), at)
      assert(pass.keptFrames.dtypes === ref.keptFrames.dtypes, at)
      assert(rows(pass.keptFrames) === rows(ref.keptFrames), at)
    }
  }

  // Each test runs its plans as one pass; the Q5-Q9 pass mixes queries.
  Seq(Queries.q1, Queries.q2, Queries.q3, Queries.q4).foreach { q =>
    test(s"${q.name} matches the reference under all 7 setups") {
      assertSame(nus, AblationExperiment.Setups.map(q -> _._1))
    }
  }

  test("Q5-Q9 match the reference under SB and S6") {
    assertSame(nus, for (q <- Seq(Queries.q5, Queries.q6, Queries.q7, Queries.q8, Queries.q9);
                         s <- Seq("SB", "S6")) yield q -> s)
  }

  test("Q10a on sky-lite matches the reference under SB, S1 and S6") {
    assertSame(sky, Seq("SB", "S1", "S6").map(Queries.q10Aerial -> _))
  }
}
