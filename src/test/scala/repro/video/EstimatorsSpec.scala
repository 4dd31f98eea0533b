package repro.video

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.core.DataFrameDetector
import repro.world.{WorldGen, WorldParams}

class EstimatorsSpec extends SparkSpec {

  private val p = WorldParams.nuscenes(nScenes = 2)
  private lazy val frames = WorldGen.frames(spark, p).persist()
  private lazy val gt     = WorldGen.gtStates(spark, p).persist()
  private lazy val dets   = DataFrameDetector.detect(spark, frames, gt).persist()
  /** Each detection paired with its geometry estimate. */
  private lazy val geom   = {
    import spark.implicits._
    dets.as[DetRow].collect().map(d => (d, Estimators.geomOne(d)))
  }

  /** Distance of an estimate from its detection's ground-truth position. */
  private def err(d: DetRow, e: Det3dRow): Double = math.hypot(e.estX - d.gtX, e.estY - d.gtY)

  test("geometry estimator recovers ground-truth positions to sub-meter accuracy") {
    val errs = geom.collect { case (d, e) if e.method == "geom" => err(d, e) }
    assert(errs.nonEmpty)
    val mean = errs.sum / errs.size
    info(f"geometry mean error $mean%.3f m, max ${errs.max}%.3f m")
    assert(mean < 1.0, s"geometry estimator mean error $mean m")
  }

  test("ML estimator is noisier than the geometry estimator but unbiased-ish") {
    import spark.implicits._
    val geomErr = geom.collect { case (d, e) if e.method == "geom" => err(d, e) }
    val ml = dets.as[DetRow].collect().map(d => err(d, Estimators.mlOne(d)))
    val geomMean = geomErr.sum / geomErr.size
    val mlMean   = ml.sum / ml.size
    info(f"geom mean $geomMean%.3f m, ml mean $mlMean%.3f m")
    assert(mlMean > geomMean, "depth-noise path should be less accurate than ray-casting")
    assert(mlMean < 8.0, s"ML error unreasonably large: $mlMean")
  }

  test("ml estimator marks every row 'ml'") {
    val methods = DataFrameDetector.ml(spark, dets).select("method").distinct().collect().map(_.getString(0))
    assert(methods.toSet === Set("ml"))
  }

  test("geometry estimator falls back to ML only for above-horizon boxes") {
    val byMethod = geom.groupBy(_._2.method).map { case (m, rs) => m -> rs.length.toLong }
    info(s"methods: $byMethod")
    assert(byMethod.contains("geom"))
    val fallback = byMethod.getOrElse("geom_fallback", 0L)
    assert(fallback < byMethod("geom") / 10, "fallbacks should be rare for ground objects")
  }

  test("estimators preserve row count and detection identity") {
    assert(geom.length.toLong === dets.count())
    assert(geom.map(_._2.did).distinct.length.toLong === dets.select("did").distinct().count())
  }

  test("estimators are deterministic") {
    val a = DataFrameDetector.ml(spark, dets).orderBy("did").collect().map(_.toString)
    val b = DataFrameDetector.ml(spark, dets).orderBy("did").collect().map(_.toString)
    assert(a.sameElements(b))
  }
}
