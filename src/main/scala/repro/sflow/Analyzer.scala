package repro.sflow

/** What a workflow's filter predicate requires of the video-processing
  * plan, and which spatial-aware optimizations are applicable (§5.2.2's
  * "only includes the necessary operators" + §6's placement rules).
  */
final case class PlanRequirements(
    objRefs: Seq[ObjRef],
    geoRefs: Seq[GeoRef],
    /** Tracking (and thus object headings/trajectories) required? */
    needsTracking: Boolean,
    /** Union of required object types, if every object ref is
      * type-constrained (the Object Type Pruner's applicability condition).
      */
    typesOfInterest: Option[Set[String]],
    /** (construct type, visibility distance) targets for the Road
      * Visibility Pruner: one per `contains` conjunct, with the distance
      * bound tied to the camera when present (§6.1.1).
      */
    rvpTargets: Seq[(String, Double)],
    /** Geometry-based 3D estimation applicable (all types on the ground). */
    geomApplicable: Boolean,
    /** Exit Frame Sampler applicable (§6.4: vehicle-only workflows). */
    efsApplicable: Boolean)

object Analyzer {

  /** Object types that can be assumed to touch the ground (§6.3.3 — a
    * "traffic light" would not be).
    */
  val GroundTypes: Set[String] =
    Set("car", "truck", "pedestrian", "person", "bicycle", "barrier", "bus", "motorcycle")

  val VehicleTypes: Set[String] = Set("car", "truck")

  /** Default visibility distance when a `contains` target has no explicit
    * camera-distance bound (§7: "all queries look for objects closer than
    * 50 meters").
    */
  val DefaultVisibilityDistance = 50.0

  /** Rejects a construct where a point is needed, and a `contains` with
    * no term: a construct is a polygon, with no position to measure.
    */
  private def requirePoints(p: Pred): Unit = {
    val points = p match {
      case And(ps)             => ps.foreach(requirePoints); Nil
      case Or(ps)              => ps.foreach(requirePoints); Nil
      case Contains(g, ts)     =>
        require(ts.nonEmpty, s"contains on construct '${g.name}' (${g.geoType}) names no term"); ts
      case DistanceLt(a, b, _) => Seq(a, b)
      case _                   => Nil
    }
    points.collect { case g: GeoRef => g }.foreach { g =>
      throw new IllegalArgumentException(s"construct '${g.name}' (${g.geoType}) is used as a point in $p")
    }
  }

  def analyze(pred: Pred): PlanRequirements = {
    requirePoints(pred)
    val cs      = Pred.conjuncts(pred)
    val objs    = Pred.objRefs(pred)
    val geos    = Pred.geoRefs(pred)

    // Object headings and trajectory aggregates come from tracks, under
    // an `Or` as much as at the top level.
    def readsTracks(p: Pred): Boolean = p match {
      case HeadingDiffBetween(a, b, _, _) =>
        Seq(a, b).exists(_.isInstanceOf[ObjRef])
      case _: TurnLeft => true
      case _: Stopped  => true
      case And(ps)     => ps.exists(readsTracks)
      case Or(ps)      => ps.exists(readsTracks)
      case _           => false
    }
    val needsTracking = readsTracks(pred)

    // OTP: every object ref must be type-constrained by a conjunct,
    // otherwise an unconstrained object may be of any type and nothing
    // can be pruned.
    val typeConstraints: Map[ObjRef, Set[String]] =
      cs.collect { case TypeIs(o, ts) => o -> ts }
        .groupBy(_._1)
        .map { case (o, ts) => o -> ts.map(_._2).reduce(_ intersect _) }
    val typesOfInterest: Option[Set[String]] =
      if (objs.nonEmpty && objs.forall(typeConstraints.contains))
        Some(objs.flatMap(typeConstraints(_)).toSet)
      else None

    // RVP: a `contains(geo, ...)` conjunct makes geo's visibility a proxy
    // for the match (§6.1.1); the distance is the tightest camera-distance
    // bound over the contained objects, else the 50 m default.
    val camDistByObj = Pred.cameraBounds(pred)
    val rvpTargets = cs.collect { case Contains(g, terms) =>
      val d = terms.flatMap(camDistByObj.get) match {
        case Nil => DefaultVisibilityDistance
        case ds  => ds.min
      }
      (g.geoType, d)
    }.distinct

    val geomApplicable = typesOfInterest.exists(_.subsetOf(GroundTypes))
    val efsApplicable  = needsTracking && typesOfInterest.exists(_.subsetOf(VehicleTypes))

    PlanRequirements(objs, geos, needsTracking, typesOfInterest,
                     rvpTargets, geomApplicable, efsApplicable)
  }
}
