package repro.world

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.geom.{Polygon, Vec2}
import repro.geom.PolygonSpec.centroid

class RoadNetworkSpec extends SparkSpec {
  import RoadNetworkSpec.intersectionAt

  private val params = GridParams()
  private val net    = RoadNetwork.grid(params)
  private val lanes  = net.ofType("lane")

  test("grid contains every construct type") {
    val types = net.segments.map(_.rtype).toSet
    assert(types === Set("lane", "intersection", "lanegroup", "roadsection", "bikeLane"))
  }

  test("intersection count matches the grid") {
    assert(net.ofType("intersection").size === params.nx * params.ny)
  }

  test("lane count: two per block per road") {
    val horizontal = params.ny * (params.nx - 1) * 2
    val vertical   = params.nx * (params.ny - 1) * 2
    assert(lanes.size === horizontal + vertical)
  }

  test("bike lanes only on every bikeLaneEvery-th horizontal road") {
    val expected = params.ny / params.bikeLaneEvery + (if (params.ny % params.bikeLaneEvery > 0) 1 else 0)
    assert(net.ofType("bikeLane").size === expected * (params.nx - 1))
  }

  test("all lanes carry a heading; intersections do not") {
    assert(lanes.forall(_.heading.isDefined))
    assert(net.ofType("intersection").forall(_.heading.isEmpty))
  }

  test("lane headings are cardinal") {
    assert(lanes.flatMap(_.heading).toSet === Set(0.0, 90.0, 180.0, 270.0))
  }

  test("rids are unique") {
    assert(net.segments.map(_.rid).distinct.size === net.segments.size)
  }

  test("eastbound lane is below the road centerline (right-hand traffic)") {
    val east = lanes.filter(_.heading.contains(0.0))
    assert(east.nonEmpty)
    east.foreach { l =>
      val cy = centroid(l.polygon).y
      val roadY = math.round(cy / params.spacing) * params.spacing
      assert(cy < roadY, s"eastbound lane centroid $cy should sit below road y=$roadY")
    }
  }

  test("laneAt finds the eastbound lane centerline point") {
    // Midway along the first horizontal road's first block, below centerline.
    val p = Vec2(params.spacing / 2.0, -params.laneWidth / 2.0)
    val l = net.laneAt(p)
    assert(l.isDefined)
    assert(l.get.heading.contains(0.0))
  }

  test("intersectionAt finds crossings and rejects mid-block points") {
    assert(intersectionAt(net, Vec2(params.spacing, params.spacing)).isDefined)
    assert(intersectionAt(net, Vec2(params.spacing / 2, params.spacing / 2)).isEmpty)
  }

  test("lanes do not overlap intersections") {
    val inters = net.ofType("intersection")
    lanes.foreach { l =>
      val c = centroid(l.polygon)
      assert(inters.forall(!_.polygon.contains(c)), s"lane ${l.rid} centroid inside an intersection")
    }
  }

  test("toDF round trips counts and bboxes") {
    val df = net.toDF(spark)
    assert(df.count() === net.segments.size.toLong)
    val row = df.filter(df("rtype") === "intersection").orderBy("rid").collect()(0)
    val polygon = Polygon(row.getAs[Seq[Double]]("xs").toArray, row.getAs[Seq[Double]]("ys").toArray)
    assert(polygon.maxX - polygon.minX === 2 * params.laneWidth)
    val headings = df.filter(df("rtype") === "lane").select("heading").collect()
    assert(headings.forall(!_.isNullAt(0)))
  }
}

object RoadNetworkSpec {

  /** The intersection containing a ground point, if any. */
  def intersectionAt(net: RoadNetwork, p: Vec2): Option[RoadSegment] =
    net.ofType("intersection").find(_.polygon.contains(p))
}
