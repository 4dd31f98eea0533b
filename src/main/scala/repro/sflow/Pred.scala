package repro.sflow

/** S-Flow terms (paper §4.2): references to arbitrary Movable Objects,
  * the Camera, and Geographic Constructs of a given type, usable inside
  * filter predicates before any video processing has happened.
  */
sealed trait Term { def name: String }

/** `object()` — an arbitrary non-camera Movable Object. */
final case class ObjRef(name: String) extends Term

/** `camera()` — the Camera movable object. */
case object CamRef extends Term { val name = "camera" }

/** `geoConstruct(type=...)` — an arbitrary Geographic Construct of a type. */
final case class GeoRef(name: String, geoType: String) extends Term

/** S-Flow filter predicates (the predicate operators of Table 1). */
sealed trait Pred

/** `obj.type in {...}` */
final case class TypeIs(obj: ObjRef, types: Set[String]) extends Pred

/** `contains(geo, [terms...])` — the construct's polygon contains each
  * term's ground point.
  */
final case class Contains(geo: GeoRef, terms: Seq[Term]) extends Pred

/** `distance(a, b) < meters` (ground-plane distance). */
final case class DistanceLt(a: Term, b: Term, meters: Double) extends Pred

/** `headingDiff(a, b) between [lo, hi]` degrees; terms may be objects,
  * the camera, or a lane-like construct (its traffic heading).
  */
final case class HeadingDiffBetween(a: Term, b: Term, lo: Double, hi: Double) extends Pred

/** `turnLeft(obj)` — the object's track turns left (CCW) through >= ~45 deg. */
final case class TurnLeft(obj: ObjRef) extends Pred

/** `stopped(obj)` — the object's track is stationary. */
final case class Stopped(obj: ObjRef) extends Pred

final case class And(ps: Seq[Pred]) extends Pred
final case class Or(ps: Seq[Pred]) extends Pred

object Pred {
  /** Tolerance bands for the derived heading helpers; generous enough to
    * absorb detector/tracker noise in the synthetic world.
    */
  val SameDirectionMaxDeg = 30.0
  val OppositeMinDeg      = 150.0
  val PerpendicularBand: (Double, Double) = (60.0, 120.0)

  def sameDirection(a: Term, b: Term): Pred = HeadingDiffBetween(a, b, 0.0, SameDirectionMaxDeg)
  def opposite(a: Term, b: Term): Pred      = HeadingDiffBetween(a, b, OppositeMinDeg, 180.0)
  def perpendicular(a: Term, b: Term): Pred =
    HeadingDiffBetween(a, b, PerpendicularBand._1, PerpendicularBand._2)

  def and(ps: Pred*): Pred = And(ps.toSeq)

  /** Flatten a conjunctive predicate into conjuncts; an Or anywhere at the
    * top level makes the whole predicate a single opaque conjunct.
    */
  def conjuncts(p: Pred): Seq[Pred] = p match {
    case And(ps) => ps.flatMap(conjuncts)
    case other   => Seq(other)
  }

  /** Every term mentioned, in mention order, repeats included; a
    * `contains` mentions its construct before the contained terms.
    */
  def terms(p: Pred): Seq[Term] = p match {
    case TypeIs(o, _)                   => Seq(o)
    case Contains(g, ts)                => g +: ts
    case DistanceLt(a, b, _)            => Seq(a, b)
    case HeadingDiffBetween(a, b, _, _) => Seq(a, b)
    case TurnLeft(o)                    => Seq(o)
    case Stopped(o)                     => Seq(o)
    case And(ps)                        => ps.flatMap(terms)
    case Or(ps)                         => ps.flatMap(terms)
  }

  /** All object references mentioned (in first-mention order). */
  def objRefs(p: Pred): Seq[ObjRef] = terms(p).collect { case o: ObjRef => o }.distinct

  /** All geographic-construct references mentioned (first-mention order). */
  def geoRefs(p: Pred): Seq[GeoRef] = terms(p).collect { case g: GeoRef => g }.distinct

  /** The tightest `distance(camera, t) < d` bound per term `t`, over the
    * conjuncts of `p` (a bound under an `Or` bounds nothing).
    */
  def cameraBounds(p: Pred): Map[Term, Double] =
    conjuncts(p).collect {
      case DistanceLt(CamRef, t, d) => t -> d
      case DistanceLt(t, CamRef, d) => t -> d
    }.groupMapReduce(_._1)(_._2)(math.min)
}
