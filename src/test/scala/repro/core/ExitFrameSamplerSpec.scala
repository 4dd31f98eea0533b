package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.sflow.Analyzer
import repro.video.{Det3dRow, Estimators, SimDetector}
import repro.world._

class ExitFrameSamplerSpec extends SparkSpec {

  private val p   = WorldParams.nuscenes(nScenes = 3)
  private val net = RoadNetwork.grid(p.grid)
  private lazy val frames = WorldGen.frames(spark, p).persist()
  private lazy val gt     = WorldGen.gtStates(spark, p).persist()

  private val lanes  = net.segments.filter(_.heading.isDefined).toArray
  private val inters = net.ofType("intersection").toArray

  /** Sample every scene of the synthetic world in Spark, one task per
    * scene: vehicle detections located by the geometry estimator.
    */
  private def sampleWorld(): Vector[(Long, Vector[Int])] = {
    val (ls, is, fps) = (lanes, inters, p.fps)
    VideoProcessor.byScene(frames, gt) { (sid, frs, states) =>
      val dets3d = frs
        .flatMap(fr => SimDetector.detectFrame(fr, states.getOrElse(fr.frameIdx, Nil)))
        .filter(d => Analyzer.VehicleTypes.contains(d.otype))
        .map(Estimators.geomOne(_))
      sid -> ExitFrameSampler.sampleScene(frs, dets3d.groupBy(_.frameIdx), ls, is, fps)
    }.collect().toVector.sortBy(_._1)
  }

  // Static camera at the origin looking east; cars are placed ahead of it.
  private def mkFrames(n: Int): Vector[FrameRow] =
    (0 until n).map(f => FrameRow(0L, f, f / 12.0, 0, -1.75, 1.5, 0.0, 0.0,
                                  800, 800, 0, 800, 450, 1600, 900)).toVector

  private def carAt(frame: Int, x: Double, y: Double): Det3dRow =
    Det3dRow(0L, frame, frame * 100L, 1L, "car", 700, 400, 760, 440, x, y, "geom")

  test("empty scene samples nothing") {
    assert(ExitFrameSampler.sampleScene(Vector.empty, Map.empty, lanes, inters, 12.0) === Vector.empty)
  }

  test("with no detections the sampler still advances, capped by max skip") {
    val frs = mkFrames(60)
    val out = ExitFrameSampler.sampleScene(frs, Map.empty, lanes, inters, 12.0)
    assert(out.head === 0)
    assert(out.last === 59)
    out.sliding(2).foreach { case Seq(a, b) =>
      assert(b - a <= ExitFrameSampler.DefaultMaxSkip + 1, s"gap $a->$b exceeds cap")
    }
  }

  test("a car inside an intersection forces frame-by-frame tracking") {
    val frs = mkFrames(20)
    // (80, 0) is inside the intersection at grid point (1, 0).
    val dets = (0 until 20).map(f => f -> Seq(carAt(f, 80.0, 0.0))).toMap
    val out = ExitFrameSampler.sampleScene(frs, dets, lanes, inters, 12.0)
    assert(out === (0 until 20).toVector, "no skipping inside an intersection")
  }

  test("a car mid-lane lets the sampler skip ahead (exitsLane)") {
    val frs = mkFrames(40)
    // Eastbound lane y in [-3.5, 0]; car at x=10 -> exit at x=76.5 (66.5 m
    // at 11.18 m/s = ~71 frames), so the cap (13) binds first.
    val dets = Map(0 -> Seq(carAt(0, 10.0, -1.75)))
    val out = ExitFrameSampler.sampleScene(frs, dets, lanes, inters, 12.0)
    assert(out(1) - out(0) === ExitFrameSampler.DefaultMaxSkip + 1,
           s"expected a max skip first step, got ${out.take(3)}")
  }

  test("exitsLane samples the frame right before the predicted lane exit") {
    val frs = mkFrames(40)
    // Car 4 m from the lane end: exits at 4/11.18 s = 0.358 s = 4.3 frames.
    val dets = Map(0 -> Seq(carAt(0, 72.5, -1.75)))
    val out = ExitFrameSampler.sampleScene(frs, dets, lanes, inters, 12.0)
    assert(out(1) === 4, s"expected to sample frame 4 (just before exit), got ${out.take(3)}")
  }

  test("newCar event: the sampler lands on the frame where a second car appears") {
    val frs = mkFrames(40)
    val dets: Map[Int, Seq[Det3dRow]] =
      ((0 until 40).map(f => f -> Seq(carAt(f, 10.0 + f, -1.75))).toMap: Map[Int, Seq[Det3dRow]])
        .updated(6, Seq(carAt(6, 16.0, -1.75), carAt(6, 30.0, -1.75)))
    val out = ExitFrameSampler.sampleScene(frs, dets, lanes, inters, 12.0)
    assert(out.contains(6), s"newCar frame 6 missed: $out")
  }

  test("sampled frames are strictly increasing and within the scene") {
    val frs = mkFrames(100)
    val dets = (0 until 100 by 3).map(f => f -> Seq(carAt(f, 10.0 + f * 0.9, -1.75))).toMap
    val out = ExitFrameSampler.sampleScene(frs, dets, lanes, inters, 12.0)
    assert(out === out.sorted.distinct)
    assert(out.forall(f => f >= 0 && f < 100))
    assert(out.head === 0 && out.last === 99)
  }

  test("maxSkip parameter is honored") {
    val frs  = mkFrames(80)
    val out5 = ExitFrameSampler.sampleScene(frs, Map.empty, lanes, inters, 12.0, maxSkip = 5)
    out5.sliding(2).foreach { case Seq(a, b) => assert(b - a <= 6) }
    val out20 = ExitFrameSampler.sampleScene(frs, Map.empty, lanes, inters, 12.0, maxSkip = 20)
    assert(out20.size < out5.size)
  }

  test("on the synthetic world the sampler reduces tracker frames substantially") {
    val nAll     = frames.count()
    val nSampled = sampleWorld().map(_._2.size).sum
    val frac     = nSampled.toDouble / nAll
    info(f"sampled ${frac * 100}%.1f%% of frames (avg skip ${nAll.toDouble / nSampled - 1}%.1f)")
    assert(frac < 0.8, "sampler should skip a meaningful share of frames")
    assert(frac > 0.1, "sampler should not degenerate")
  }

  test("Spark-side sampling is deterministic and scene-complete") {
    val a = sampleWorld()
    assert(a === sampleWorld())
    assert(a.map(_._1) === Vector(0L, 1L, 2L), "every scene must be sampled")
    assert(a.forall(_._2.nonEmpty))
  }
}
