package repro.world

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.geom.{Polygon, Vec2}

/** One Geographic Construct (paper §4.1.2): an identified, typed polygon
  * on the ground plane. Lanes and bike lanes carry a traffic heading
  * (§4.2.3); intersections / lane groups / road sections do not.
  */
final case class RoadSegment(rid: Long, rtype: String, polygon: Polygon, heading: Option[Double])

/** A synthetic road network standing in for the Boston-Seaport / Scenic
  * road data: a rectangular grid of two-lane roads with intersections,
  * lane groups, road sections, and bike lanes on a subset of roads.
  *
  * Construct types match the paper's dataset: `lane`, `intersection`,
  * `lanegroup`, `roadsection`, plus `bikeLane` for the SkyQuery workload.
  */
final case class RoadNetwork(segments: Vector[RoadSegment], params: GridParams) {

  def ofType(t: String): Vector[RoadSegment] = segments.filter(_.rtype == t)

  /** The lane (or bike lane) containing a ground point, if any. */
  def laneAt(p: Vec2): Option[RoadSegment] =
    segments.find(s => (s.rtype == "lane" || s.rtype == "bikeLane") && s.polygon.contains(p))

  /** Geographic-construct table for the geospatial metadata store
    * (paper §5.2.1). The Catalyst bbox-prefilter rule (the "spatial
    * index" analogue) derives each box from the `xs`/`ys` vertex arrays.
    */
  def toDF(spark: SparkSession): DataFrame = {
    import spark.implicits._
    segments.map(s => RoadRow(s.rid, s.rtype, s.polygon.xs, s.polygon.ys, s.heading)).toDF()
  }
}

/** Row shape of the road-network table. */
final case class RoadRow(rid: Long, rtype: String, xs: Array[Double], ys: Array[Double],
                         heading: Option[Double])

/** Grid parameters. `spacing` is the distance between parallel road
  * centerlines; each road has one lane per direction of width `laneWidth`;
  * intersections are squares of half-size `laneWidth` at the crossings.
  * Every `bikeLaneEvery`-th horizontal road gets a bike lane strip.
  */
final case class GridParams(nx: Int = 5, ny: Int = 5, spacing: Double = 80.0,
                            laneWidth: Double = 3.5, bikeLaneEvery: Int = 2,
                            bikeLaneWidth: Double = 1.5)

object RoadNetwork {

  /** Deterministic grid road network. */
  def grid(params: GridParams): RoadNetwork = {
    val GridParams(nx, ny, sp, lw, bikeEvery, bw) = params
    val segs = Vector.newBuilder[RoadSegment]
    var rid  = 0L
    def add(rtype: String, poly: Polygon, heading: Option[Double]): Unit = {
      segs += RoadSegment(rid, rtype, poly, heading)
      rid += 1
    }

    // Intersections at each grid crossing.
    for (i <- 0 until nx; j <- 0 until ny) {
      val (x, y) = (i * sp, j * sp)
      add("intersection", Polygon.rect(x - lw, y - lw, x + lw, y + lw), None)
    }

    // Horizontal roads: east lane below centerline, west lane above
    // (right-hand traffic), one block per pair of adjacent intersections.
    for (j <- 0 until ny; i <- 0 until nx - 1) {
      val y  = j * sp
      val xa = i * sp + lw
      val xb = (i + 1) * sp - lw
      add("lane", Polygon.rect(xa, y - lw, xb, y), Some(0.0))
      add("lane", Polygon.rect(xa, y, xb, y + lw), Some(180.0))
      add("lanegroup", Polygon.rect(xa, y - lw, xb, y + lw), None)
      add("roadsection", Polygon.rect(xa, y - lw, xb, y + lw), None)
      if (bikeEvery > 0 && j % bikeEvery == 0)
        add("bikeLane", Polygon.rect(xa, y + lw, xb, y + lw + bw), Some(0.0))
    }

    // Vertical roads: north lane right of centerline, south lane left.
    for (i <- 0 until nx; j <- 0 until ny - 1) {
      val x  = i * sp
      val ya = j * sp + lw
      val yb = (j + 1) * sp - lw
      add("lane", Polygon.rect(x, ya, x + lw, yb), Some(90.0))
      add("lane", Polygon.rect(x - lw, ya, x, yb), Some(270.0))
      add("lanegroup", Polygon.rect(x - lw, ya, x + lw, yb), None)
      add("roadsection", Polygon.rect(x - lw, ya, x + lw, yb), None)
    }

    RoadNetwork(segs.result(), params)
  }
}
