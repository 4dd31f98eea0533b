package repro.sflow

/** A named evaluation workflow: Table 1's query text and S-Flow predicate. */
final case class Query(name: String, description: String, pred: Pred) {
  lazy val requirements: PlanRequirements = Analyzer.analyze(pred)
}

/** The ten evaluation queries of Table 1. Every query carries the paper's
  * implicit `distance(camera, obj) < 50 m` bound ("All queries look for
  * objects closer than 50 meters", §7).
  */
object Queries {
  import Pred._

  private val MaxDist = Analyzer.DefaultVisibilityDistance

  /** Conjoin a predicate with the implicit 50 m camera-distance bound for
    * every object it mentions (unless a tighter bound already exists).
    */
  def withDefaultDistance(p: Pred): Pred = {
    val bounded = cameraBounds(p)
    val extra   = objRefs(p).filterNot(bounded.contains).map(o => DistanceLt(CamRef, o, MaxDist))
    And(conjuncts(p) ++ extra)
  }

  private def q(name: String, desc: String, p: Pred): Query =
    Query(name, desc, withDefaultDistance(p))

  val person = ObjRef("person")
  val car    = ObjRef("car")
  val car1   = ObjRef("car1"); val car2 = ObjRef("car2"); val car3 = ObjRef("car3")

  private def inter(n: String)  = GeoRef(n, "intersection")
  private def lane(n: String)   = GeoRef(n, "lane")
  private def bikeLane(n: String) = GeoRef(n, "bikeLane")

  val q1: Query = q("Q1", "A pedestrian at an intersection facing perpendicularly to the camera",
    and(TypeIs(person, Set("pedestrian")),
        Contains(inter("i"), Seq(person)),
        perpendicular(person, CamRef)))

  val q2: Query = q("Q2", "2 cars at an intersection moving in opposite directions",
    and(TypeIs(car1, Set("car")), TypeIs(car2, Set("car")),
        Contains(inter("i"), Seq(car1, car2)),
        opposite(car1, car2)))

  val q3: Query = q("Q3", "Camera moving opposite to the lane direction, another car moving with the lane within 10 m",
    and(TypeIs(car, Set("car")),
        Contains(lane("l"), Seq(CamRef, car)),
        opposite(lane("l"), CamRef),
        sameDirection(lane("l"), car),
        DistanceLt(CamRef, car, 10.0)))

  val q4: Query = q("Q4", "A car and the camera moving together on a lane; 2 other cars together on an opposite lane",
    and(TypeIs(car1, Set("car")), TypeIs(car2, Set("car")), TypeIs(car3, Set("car")),
        Contains(lane("l1"), Seq(car1, CamRef)),
        sameDirection(car1, CamRef),
        Contains(lane("l2"), Seq(car2, car3)),
        sameDirection(car2, car3),
        opposite(lane("l1"), lane("l2"))))

  val q5: Query = q("Q5", "A pedestrian is at an intersection",
    and(TypeIs(person, Set("pedestrian")),
        Contains(inter("i"), Seq(person))))

  val q6: Query = q("Q6", "2 cars are at an intersection",
    and(TypeIs(car1, Set("car")), TypeIs(car2, Set("car")),
        Contains(inter("i"), Seq(car1, car2))))

  val q7: Query = q("Q7", "A car on a lane within 10 m of the camera",
    and(TypeIs(car, Set("car")),
        Contains(lane("l"), Seq(CamRef)),
        DistanceLt(CamRef, car, 10.0)))

  val q8: Query = q("Q8", "3 cars, each on a lane",
    and(TypeIs(car1, Set("car")), TypeIs(car2, Set("car")), TypeIs(car3, Set("car")),
        Contains(lane("l1"), Seq(car1)),
        Contains(lane("l2"), Seq(car2)),
        Contains(lane("l3"), Seq(car3))))

  val q9: Query = q("Q9", "A car turning left with a pedestrian at an intersection",
    and(TypeIs(car, Set("car")), TypeIs(person, Set("pedestrian")),
        Contains(inter("i"), Seq(car, person)),
        TurnLeft(car)))

  val q10: Query = q("Q10", "A car stopped in a cycling lane",
    and(TypeIs(car, Set("car")),
        Contains(bikeLane("b"), Seq(car)),
        Stopped(car)))

  /** Q10 for the aerial (SkyQuery) dataset: the camera flies at ~120 m
    * altitude, so the visibility bound is 150 m instead of the ego-camera
    * default of 50 m.
    */
  val q10Aerial: Query = Query("Q10a", "A car stopped in a cycling lane (aerial)",
    and(TypeIs(car, Set("car")),
        Contains(bikeLane("b"), Seq(car)),
        Stopped(car),
        DistanceLt(CamRef, car, 150.0)))

  val all: Seq[Query] = Seq(q1, q2, q3, q4, q5, q6, q7, q8, q9, q10)

  def byName(name: String): Query = all.find(_.name == name).getOrElse(
    throw new IllegalArgumentException(s"unknown query $name"))
}
