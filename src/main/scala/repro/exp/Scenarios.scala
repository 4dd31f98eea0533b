package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.world.{RoadNetwork, WorldGen, WorldParams}

/** A fully materialized evaluation dataset. */
final case class Dataset(name: String, params: WorldParams,
                         frames: DataFrame, gtStates: DataFrame, net: RoadNetwork) {
  def fps: Double    = params.fps
  def nVideos: Long  = params.nScenes.toLong
  def roadCountsByType: Map[String, Long] =
    net.segments.groupBy(_.rtype).map { case (t, ss) => t -> ss.size.toLong }
}

/** Builders for the three evaluation datasets (DESIGN.md §2 substitutions
  * for nuScenes Boston-Seaport, VIVA's Jackson Square and SkyQuery's
  * aerial footage). Tests use small scenes; benches use the larger scale.
  */
object Scenarios {

  private def build(spark: SparkSession, name: String, p: WorldParams): Dataset = {
    val frames = WorldGen.frames(spark, p).persist()
    val gt     = WorldGen.gtStates(spark, p).persist()
    frames.count(); gt.count()
    Dataset(name, p, frames, gt, WorldGen.roadNetwork(p))
  }

  def nuscenes(spark: SparkSession, nScenes: Int, seed: Long = 7): Dataset =
    build(spark, "nuscenes-lite", WorldParams.nuscenes(nScenes, seed))

  def jackson(spark: SparkSession, nClips: Int, seed: Long = 11): Dataset =
    build(spark, "jackson-lite", WorldParams.jackson(nClips, seed))

  def sky(spark: SparkSession, nFlights: Int, seed: Long = 13): Dataset =
    build(spark, "sky-lite", WorldParams.sky(nFlights, seed))
}
