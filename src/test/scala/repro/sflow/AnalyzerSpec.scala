package repro.sflow

import org.scalatest.funsuite.AnyFunSuite

class AnalyzerSpec extends AnyFunSuite {
  import Pred._

  private val car    = ObjRef("car")
  private val person = ObjRef("person")
  private val lane   = GeoRef("l", "lane")
  private val inter  = GeoRef("i", "intersection")

  private def usesCamera(p: Pred): Boolean = terms(p).contains(CamRef)

  test("conjuncts flattens nested Ands") {
    val p = And(Seq(TypeIs(car, Set("car")), And(Seq(Stopped(car), TurnLeft(car)))))
    assert(conjuncts(p).size === 3)
  }

  test("objRefs collects objects in first-mention order without duplicates") {
    val p = And(Seq(Contains(inter, Seq(person, car)), TypeIs(car, Set("car")), Stopped(person)))
    assert(objRefs(p) === Seq(person, car))
  }

  test("geoRefs collects constructs") {
    val p = And(Seq(Contains(inter, Seq(car)), Contains(lane, Seq(car))))
    assert(geoRefs(p) === Seq(inter, lane))
  }

  test("usesCamera detects camera terms") {
    assert(usesCamera(DistanceLt(CamRef, car, 10)))
    assert(!usesCamera(DistanceLt(person, car, 10)))
    assert(usesCamera(Contains(lane, Seq(CamRef))))
  }

  test("helper predicates encode the expected bands") {
    assert(sameDirection(car, CamRef) === HeadingDiffBetween(car, CamRef, 0, 30))
    assert(opposite(car, CamRef) === HeadingDiffBetween(car, CamRef, 150, 180))
    assert(perpendicular(car, CamRef) === HeadingDiffBetween(car, CamRef, 60, 120))
  }

  test("type-only predicates need no tracking") {
    val req = Analyzer.analyze(And(Seq(TypeIs(car, Set("car")), Contains(inter, Seq(car)))))
    assert(!req.needsTracking)
  }

  test("heading predicates on objects require tracking") {
    val req = Analyzer.analyze(And(Seq(TypeIs(car, Set("car")), opposite(car, CamRef))))
    assert(req.needsTracking)
  }

  test("lane-to-camera heading comparison alone does NOT require object tracking") {
    val req = Analyzer.analyze(And(Seq(TypeIs(car, Set("car")), opposite(lane, CamRef))))
    assert(!req.needsTracking, "camera heading is metadata; no object trajectory involved")
  }

  test("heading and trajectory predicates under an Or require tracking") {
    val car2 = ObjRef("car2")
    assert(Analyzer.analyze(And(Seq(TypeIs(car, Set("car")),
                                    Or(Seq(TurnLeft(car), Contains(inter, Seq(car))))))).needsTracking)
    assert(Analyzer.analyze(And(Seq(TypeIs(car, Set("car")), TypeIs(car2, Set("car")),
                                    Or(Seq(Contains(lane, Seq(car)),
                                           And(Seq(Stopped(car2), opposite(car, car2)))))))).needsTracking)
    assert(!Analyzer.analyze(Or(Seq(TypeIs(car, Set("car")), opposite(lane, CamRef)))).needsTracking)
  }

  test("turnLeft and stopped require tracking") {
    assert(Analyzer.analyze(And(Seq(TypeIs(car, Set("car")), TurnLeft(car)))).needsTracking)
    assert(Analyzer.analyze(And(Seq(TypeIs(car, Set("car")), Stopped(car)))).needsTracking)
  }

  test("OTP applicability: every object must be type-constrained") {
    val both = Analyzer.analyze(And(Seq(TypeIs(car, Set("car")), TypeIs(person, Set("pedestrian")),
                                        Contains(inter, Seq(car, person)))))
    assert(both.typesOfInterest === Some(Set("car", "pedestrian")))
    val partial = Analyzer.analyze(And(Seq(TypeIs(car, Set("car")), Contains(inter, Seq(car, person)))))
    assert(partial.typesOfInterest === None, "unconstrained person blocks OTP")
  }

  test("conflicting type constraints intersect") {
    val req = Analyzer.analyze(And(Seq(TypeIs(car, Set("car", "truck")), TypeIs(car, Set("car")))))
    assert(req.typesOfInterest === Some(Set("car")))
  }

  test("RVP targets carry the camera-distance bound when present") {
    val p = And(Seq(TypeIs(car, Set("car")), Contains(lane, Seq(car)), DistanceLt(CamRef, car, 10)))
    assert(Analyzer.analyze(p).rvpTargets === Seq(("lane", 10.0)))
  }

  test("RVP targets default to 50 m without an explicit bound") {
    val p = And(Seq(TypeIs(car, Set("car")), Contains(inter, Seq(car))))
    assert(Analyzer.analyze(p).rvpTargets === Seq(("intersection", Analyzer.DefaultVisibilityDistance)))
  }

  test("EFS applies only to vehicle-only tracking workflows (§6.4)") {
    val vehicles = And(Seq(TypeIs(car, Set("car", "truck")), TurnLeft(car)))
    assert(Analyzer.analyze(vehicles).efsApplicable)
    val withPeds = And(Seq(TypeIs(car, Set("car")), TypeIs(person, Set("pedestrian")), TurnLeft(car)))
    assert(!Analyzer.analyze(withPeds).efsApplicable)
    val noTracking = And(Seq(TypeIs(car, Set("car")), Contains(inter, Seq(car))))
    assert(!Analyzer.analyze(noTracking).efsApplicable, "no tracker to accelerate")
  }

  test("geometry estimation applies when all types touch the ground") {
    val ground = And(Seq(TypeIs(car, Set("car", "pedestrian"))))
    assert(Analyzer.analyze(ground).geomApplicable)
    val unknown = And(Seq(Contains(inter, Seq(car))))
    assert(!Analyzer.analyze(unknown).geomApplicable, "unconstrained type may be a traffic light")
    val trafficLight = And(Seq(TypeIs(car, Set("trafficlight"))))
    assert(!Analyzer.analyze(trafficLight).geomApplicable)
  }

  test("Table 1 queries: requirements match the paper's operator placement") {
    // Q1: pedestrians -> OTP yes, GE yes, EFS no (not vehicles).
    val q1 = Queries.q1.requirements
    assert(q1.needsTracking && q1.typesOfInterest === Some(Set("pedestrian")) && !q1.efsApplicable)
    // Q2: cars -> everything applies.
    val q2 = Queries.q2.requirements
    assert(q2.needsTracking && q2.efsApplicable && q2.geomApplicable)
    assert(q2.rvpTargets === Seq(("intersection", 50.0)))
    // Q3: lane visibility within 10 m (the tightest bound on the car).
    val q3 = Queries.q3.requirements
    assert(q3.rvpTargets === Seq(("lane", 10.0)))
    // Q5-Q8 are detection-only.
    Seq(Queries.q5, Queries.q6, Queries.q7, Queries.q8).foreach { q =>
      assert(!q.requirements.needsTracking, s"${q.name} must not need tracking")
    }
    // Q9 mixes car + pedestrian -> no EFS.
    assert(!Queries.q9.requirements.efsApplicable)
    // Q10 targets the bike lane.
    assert(Queries.q10.requirements.rvpTargets.map(_._1) === Seq("bikeLane"))
  }

  test("every Table 1 query carries the implicit 50 m camera bound") {
    Queries.all.foreach { q =>
      val bounds = conjuncts(q.pred).collect { case DistanceLt(CamRef, o: ObjRef, d) => o -> d }
      objRefs(q.pred).foreach { o =>
        assert(bounds.exists(_._1 == o), s"${q.name}: no camera bound for ${o.name}")
      }
    }
  }

  test("byName resolves all ten queries") {
    assert(Queries.all.map(_.name) === (1 to 10).map(i => s"Q$i"))
    assert(Queries.byName("Q7") === Queries.q7)
    intercept[IllegalArgumentException] { Queries.byName("Q11") }
  }
}
